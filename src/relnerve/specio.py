"""Parsing of the diagram spec format and the line-oriented report writer.

The input is a single structured-text file; tokens are whitespace-separated
and ``#`` starts a comment.  The grammar is documented in the README.  All
names are mapped to dense indices; every error carries its line number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import check_simplicial_identities
from .fincat import CatDiagram, CatFunctor, FinCategory, SSetDiagram
from .marked import MarkedDiagram, MarkedSSet, MarkError, mark
from .sset import (SimplicialMap, SSetError, TruncationError, TruncSSet,
                   build_generated, constant_map, generated_size,
                   identity_map)

# the most simplices, over degrees 0..cap, a generator value may have
VALUE_BUDGET = 100_000
# the largest spec cap: every value is built at the spec's cap, whatever
# the command's --cap, and its tables grow about as the cube of the cap
CAP_BOUND = 32


class SpecParseError(Exception):
    def __init__(self, message, line=None):
        self.line = line
        where = "" if line is None else " (line %d)" % line
        super().__init__(message + where)


@dataclass
class ParsedSpec:
    kind: str
    cap: int
    diagram: object              # SSetDiagram | CatDiagram | MarkedDiagram
    obj_names: list


def _tokenize(text):
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((ln, body.split()))
    return rows


def _to_int(tok, ln, what):
    try:
        return int(tok)
    except ValueError:
        raise SpecParseError("expected an integer %s, got %r" % (what, tok),
                             ln)


def _arity(toks, ln, size, exact=True):
    """Refuse a directive line with too few tokens, or, if ``exact``, with
    any number other than ``size``."""
    if len(toks) < size or (exact and len(toks) > size):
        raise SpecParseError("%r takes %s%d argument(s), got %d"
                             % (toks[0], "" if exact else "at least ",
                                size - 1, len(toks) - 1), ln)


class _Cursor:
    def __init__(self, rows):
        self.rows = rows
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self):
        row = self.peek()
        if row is None:
            raise SpecParseError("unexpected end of file")
        self.pos += 1
        return row


def _in_range(v, lo, hi, what, ln):
    if not lo <= v <= hi:
        raise SpecParseError("%s %d outside %d..%d" % (what, v, lo, hi), ln)
    return v


def _parse_sset_block(cur, cap, head_ln):
    """The explicit block after a ``value NAME explicit`` line (line
    ``head_ln``), checked against the simplicial identities."""
    counts = {}
    faces = {}
    degens = {}
    while True:
        ln, toks = cur.take()
        if toks[0] == "end":
            break
        if toks[0] == "count":
            _arity(toks, ln, 3)
            n = _in_range(_to_int(toks[1], ln, "degree"), 0, cap, "degree",
                          ln)
            counts[n] = _to_int(toks[2], ln, "count")
            if counts[n] < 0:
                raise SpecParseError("count must be >= 0, got %d"
                                     % counts[n], ln)
        elif toks[0] in ("face", "degen"):
            _arity(toks, ln, 3, exact=False)
            # d_i acts on degrees 1..cap, s_i on degrees 0..cap-1
            lo = 1 if toks[0] == "face" else 0
            n = _in_range(_to_int(toks[1], ln, "degree"), lo, cap - 1 + lo,
                          "%s degree" % toks[0], ln)
            i = _in_range(_to_int(toks[2], ln, "index"), 0, n,
                          "%s index" % toks[0], ln)
            (faces if lo else degens)[(n, i)] = (
                [_to_int(t, ln, "entry") for t in toks[3:]], ln)
        else:
            raise SpecParseError("unknown directive %r in sset block"
                                 % toks[0], ln)
    clist = [counts.get(n, 0) for n in range(cap + 1)]
    tables = []
    # d_i: degree n -> n - 1 for n in 1..cap, s_i: n -> n + 1 for n < cap
    for what, given, lo, to in (("face", faces, 1, -1),
                                ("degeneracy", degens, 0, 1)):
        tables.append([None] * lo)
        for n in range(lo, cap + lo):
            tabs = []
            for i in range(n + 1):
                if (n, i) not in given:
                    if clist[n]:
                        raise SpecParseError("missing %s table %d %d"
                                             % (what, n, i), head_ln)
                    tabs.append([])
                    continue
                row, ln = given[(n, i)]
                if len(row) != clist[n] or \
                        any(v >= clist[n + to] or v < 0 for v in row):
                    raise SpecParseError("bad %s table %d %d" % (what, n, i),
                                         ln)
                tabs.append(row)
            tables[-1].append(tabs)
    X = TruncSSet(cap, clist, *tables)
    cert = check_simplicial_identities(X, "explicit")
    if not cert.ok:
        raise SpecParseError("explicit value breaks the simplicial "
                             "identities: witness %r" % (cert.witness,),
                             head_ln)
    return X


def _parse_category_block(cur):
    objs = []
    arrows = []          # (name, src, tgt)
    composes = []        # (g, f, h) names
    while True:
        ln, toks = cur.take()
        if toks[0] == "end":
            break
        if toks[0] == "object":
            objs.extend(toks[1:])
        elif toks[0] in ("arrow", "compose"):
            _arity(toks, ln, 4)
            (arrows if toks[0] == "arrow" else composes).append(
                (toks[1], toks[2], toks[3], ln))
        else:
            raise SpecParseError("unknown directive %r in category block"
                                 % toks[0], ln)
    return _build_category(objs, arrows, composes)


def _build_category(objs, arrows, composes):
    obj_index = {o: i for i, o in enumerate(objs)}
    names = ["id_%s" % o for o in objs]
    src = list(range(len(objs)))
    tgt = list(range(len(objs)))
    mor_index = {n: i for i, n in enumerate(names)}
    for (name, a, b, ln) in arrows:
        if a not in obj_index or b not in obj_index:
            raise SpecParseError("arrow %r references unknown object"
                                 % name, ln)
        if name in mor_index:
            raise SpecParseError("duplicate morphism name %r" % name, ln)
        mor_index[name] = len(names)
        names.append(name)
        src.append(obj_index[a])
        tgt.append(obj_index[b])
    identity = list(range(len(objs)))
    table = {}
    for m in range(len(names)):
        table[(m, identity[src[m]])] = m
        table[(identity[tgt[m]], m)] = m
    for (g, f, h, ln) in composes:
        for t in (g, f, h):
            if t not in mor_index:
                raise SpecParseError("compose references unknown morphism %r"
                                     % t, ln)
        table[(mor_index[g], mor_index[f])] = mor_index[h]
    C = FinCategory(len(objs), src, tgt, identity, table,
                    obj_names=objs, mor_names=names)
    return C, obj_index, mor_index


# directive -> (token count, exact); the count includes the directive
_ARITY = {"diagram": (2,), "cap": (2,), "arrow": (4,), "compose": (4,),
          "value": (3, False), "map": (3, False), "marking": (3,),
          "marked": (2, False)}

# generator -> the names of its integer parameters, in order
_GENERATORS = {"point": (), "J": (), "delta": ("n",), "boundary": ("n",),
               "discrete": ("n",), "horn": ("n", "k")}


def parse_spec(text):
    """Parse and validate a diagram spec; raises SpecParseError on any
    defect, including category and functoriality violations."""
    cur = _Cursor(_tokenize(text))
    kind = None
    cap = None
    objs, arrows, composes = [], [], []
    value_defs = {}
    map_defs = {}
    markings = {}
    marked_extra = []
    while cur.peek() is not None:
        ln, toks = cur.take()
        head = toks[0]
        if head in _ARITY:
            _arity(toks, ln, *_ARITY[head])
        if head == "diagram":
            kind = toks[1]
            if kind not in ("sset", "cat", "marked"):
                raise SpecParseError("unknown diagram kind %r" % kind, ln)
        elif head == "cap":
            cap = _to_int(toks[1], ln, "cap")
            if cap < 0:
                raise SpecParseError("cap must be >= 0, got %d" % cap, ln)
            if cap > CAP_BOUND:
                raise TruncationError("cap %d is above the bound of %d "
                                      "(line %d)" % (cap, CAP_BOUND, ln))
        elif head == "object":
            objs.extend(toks[1:])
        elif head in ("arrow", "compose"):
            (arrows if head == "arrow" else composes).append(
                (toks[1], toks[2], toks[3], ln))
        elif head == "value":
            name = toks[1]
            spec = toks[2:]
            if spec[0] == "explicit" and cap is None:
                raise SpecParseError("an explicit value needs the 'cap' "
                                     "line before it", ln)
            if spec[0] in ("explicit", "category"):
                block = _parse_sset_block(cur, cap, ln) \
                    if spec[0] == "explicit" \
                    else _parse_category_block(cur)
                value_defs[name] = (spec[0], block, ln)
            else:
                value_defs[name] = ("generator", spec, ln)
        elif head == "map":
            name = toks[1]
            spec = toks[2:]
            if spec[0] in ("explicit", "functor"):
                rows = []
                while True:
                    ln2, t2 = cur.take()
                    if t2[0] == "end":
                        break
                    rows.append((ln2, t2))
                map_defs[name] = (spec[0], rows, ln)
            else:
                map_defs[name] = ("short", spec, ln)
        elif head == "marking":
            if toks[2] not in ("flat", "sharp", "natural"):
                raise SpecParseError("unknown marking %r" % toks[2], ln)
            markings[toks[1]] = (toks[2], ln)
        elif head == "marked":
            marked_extra.append(
                (toks[1], [_to_int(t, ln, "edge id") for t in toks[2:]], ln))
        else:
            raise SpecParseError("unknown directive %r" % head, ln)
    if kind is None:
        raise SpecParseError("missing 'diagram' line")
    if cap is None:
        raise SpecParseError("missing 'cap' line")
    if not objs:
        raise SpecParseError("missing 'object' line")
    for name, ln in [(n, ln) for n, (_, ln) in markings.items()] + \
            [(n, ln) for n, _, ln in marked_extra]:
        if kind != "marked":
            raise SpecParseError("marking lines need 'diagram marked'", ln)
        if name not in objs:
            raise SpecParseError("marking of unknown object %r" % name, ln)
    C = _build_category(objs, arrows, composes)[0]
    from .fincat import CatError, validate_category
    bad = validate_category(C)
    if bad:
        raise SpecParseError("shape is not a category: %r" % (bad[0],))
    try:
        if kind == "cat":
            diagram = _assemble_cat(C, value_defs, map_defs, objs)
        else:
            diagram = _assemble_sset(C, value_defs, map_defs, objs, cap)
            if kind == "marked":
                diagram = _apply_markings(diagram, markings, marked_extra)
    except (CatError, MarkError, KeyError, IndexError) as exc:
        raise SpecParseError("invalid diagram data: %r" % (exc,))
    bad = diagram.validate()
    if bad:
        raise SpecParseError("diagram is not functorial: %r" % (bad[0],))
    return ParsedSpec(kind, cap, diagram, objs)


def _value_sset(defn, cap, name):
    tag, payload, ln = defn
    if tag == "explicit":
        return payload
    if tag != "generator":
        raise SpecParseError("value %r is not a simplicial set" % name, ln)
    gkind, args = payload[0], payload[1:]
    if gkind == "nerve":
        raise SpecParseError("nerve values need a category block", ln)
    if gkind not in _GENERATORS:
        raise SpecParseError("unknown generator %r" % gkind, ln)
    params = _GENERATORS[gkind]
    if len(args) != len(params):
        raise SpecParseError("generator %r takes %d argument(s), got %d"
                             % (gkind, len(params), len(args)), ln)
    sizes = {p: _to_int(a, ln, p) for p, a in zip(params, args)}
    for p, v in sizes.items():
        if v < 0:
            raise SpecParseError("generator %r needs %s >= 0, got %d"
                                 % (gkind, p, v), ln)
    size = generated_size(gkind, cap, **sizes)
    if size > VALUE_BUDGET:
        raise TruncationError(
            "%s value for %r has %d simplices in degrees 0..%d, above the "
            "budget of %d (line %d)" % (gkind, name, size, cap, VALUE_BUDGET,
                                        ln))
    try:
        return build_generated(gkind, cap, **sizes)
    except SSetError as exc:
        raise SpecParseError("bad %s value for %r: %s" % (gkind, name, exc),
                             ln)


def _assemble_sset(C, value_defs, map_defs, objs, cap):
    values = []
    for o in objs:
        if o not in value_defs:
            raise SpecParseError("missing value for object %r" % o)
        values.append(_value_sset(value_defs[o], cap, o))
    maps = []
    for m in range(C.n_morphisms):
        name = C.mor_names[m]
        a, b = C.src[m], C.tgt[m]
        if C.is_identity(m):
            maps.append(identity_map(values[a]))
            continue
        if name not in map_defs:
            raise SpecParseError("missing map for arrow %r" % name)
        tag, payload, ln = map_defs[name]
        rows = {}
        if tag == "short":
            if payload[0] == "constant":
                _arity(payload, ln, 2)
                v = _in_range(_to_int(payload[1], ln, "vertex"), 0,
                              values[b].counts[0] - 1, "vertex", ln)
                rows = {n: (row, ln) for n, row in enumerate(
                    constant_map(values[a], values[b], v).comp)}
            elif payload[0] == "identity":
                _arity(payload, ln, 1)
                rows = {n: (list(values[a].simplices(n)), ln)
                        for n in range(cap + 1)}
            else:
                raise SpecParseError("unknown map shorthand %r"
                                     % payload[0], ln)
        else:
            for ln2, t2 in payload:
                if t2[0] != "row":
                    raise SpecParseError("expected 'row' in map block", ln2)
                _arity(t2, ln2, 2, exact=False)
                n = _in_range(_to_int(t2[1], ln2, "degree"), 0, cap,
                              "row degree", ln2)
                rows[n] = ([_to_int(v, ln2, "entry") for v in t2[2:]], ln2)
        for n in range(cap + 1):
            row, ln2 = rows.get(n, ([], ln))
            if len(row) != values[a].counts[n]:
                raise SpecParseError(
                    "map %r row %d has wrong length" % (name, n), ln2)
            if any(not 0 <= v < values[b].counts[n] for v in row):
                raise SpecParseError("map %r row %d leaves its codomain"
                                     % (name, n), ln2)
        maps.append(SimplicialMap(values[a], values[b],
                                  [rows[n][0] for n in range(cap + 1)]))
    return SSetDiagram(C, values, maps)


def _assemble_cat(C, value_defs, map_defs, objs):
    values = []
    indices = []
    for o in objs:
        if o not in value_defs or value_defs[o][0] != "category":
            raise SpecParseError("cat diagrams need a category block per "
                                 "object (missing %r)" % o)
        V, oi, mi = value_defs[o][1]
        values.append(V)
        indices.append((oi, mi))
    maps = []
    for m in range(C.n_morphisms):
        name = C.mor_names[m]
        a, b = C.src[m], C.tgt[m]
        if C.is_identity(m):
            from .fincat import identity_functor
            maps.append(identity_functor(values[a]))
            continue
        if name not in map_defs or map_defs[name][0] != "functor":
            raise SpecParseError("missing functor block for arrow %r" % name)
        _, rows, ln = map_defs[name]
        oi_a, mi_a = indices[a]
        oi_b, mi_b = indices[b]
        obj_map = [None] * values[a].n_objects
        mor_map = [None] * values[a].n_morphisms
        for ln2, t2 in rows:
            if t2[0] not in ("obj", "mor"):
                raise SpecParseError("expected obj/mor rows", ln2)
            _arity(t2, ln2, 3)
            if t2[0] == "obj":
                obj_map[oi_a[t2[1]]] = oi_b[t2[2]]
            else:
                mor_map[mi_a[t2[1]]] = mi_b[t2[2]]
        for o in range(values[a].n_objects):
            if obj_map[o] is None:
                raise SpecParseError("functor %r misses object %s"
                                     % (name, values[a].obj_names[o]), ln)
            mid = values[a].identity[o]
            if mor_map[mid] is None:
                mor_map[mid] = values[b].identity[obj_map[o]]
        if any(v is None for v in mor_map):
            missing = mor_map.index(None)
            raise SpecParseError("functor %r misses morphism %s"
                                 % (name, values[a].mor_names[missing]), ln)
        maps.append(CatFunctor(values[a], values[b], obj_map, mor_map))
    return CatDiagram(C, values, maps)


def _apply_markings(diagram, markings, marked_extra):
    """Mark each value as its ``marking`` line says (flat by default), plus
    the edge ids of its ``marked`` lines; a defect names its line."""
    values = []
    for o, name in enumerate(diagram.shape.obj_names):
        X = diagram.values[o]
        mode, ln = markings.get(name, ("flat", None))
        try:
            base = mark(X, mode)
        except MarkError as exc:
            raise SpecParseError("cannot mark %r %s: %s" % (name, mode, exc),
                                 ln)
        edges = X.counts[1] if X.cap >= 1 else 0
        extra = set()
        for _, ids, ln in (e for e in marked_extra if e[0] == name):
            extra.update(_in_range(e, 0, edges - 1, "edge id", ln)
                         for e in ids)
        values.append(MarkedSSet(X, base.marked | extra))
    return MarkedDiagram(diagram.shape, values, diagram.maps)


def serialize_sset(X, name="sset"):
    """Explicit-block serialization: per-degree counts plus full face and
    degeneracy tables, in the grammar accepted by ``value NAME explicit``."""
    lines = ["value %s explicit" % name]
    for n in range(X.cap + 1):
        lines.append("  count %d %d" % (n, X.counts[n]))
    for n in range(1, X.cap + 1):
        for i in range(n + 1):
            lines.append("  face %d %d %s"
                         % (n, i, " ".join(str(v) for v in X.faces[n][i])))
    for n in range(X.cap):
        for i in range(n + 1):
            lines.append("  degen %d %d %s"
                         % (n, i, " ".join(str(v) for v in X.degens[n][i])))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_marked(M, name="sset"):
    """Underlying explicit block plus the marked-edge id list."""
    text = serialize_sset(M.sset, name)
    return text + "marked %s %s\n" % (
        name, " ".join(str(e) for e in sorted(M.marked)))


# -- reports -----------------------------------------------------------------

REPORT_HEADER = "# relnerve report v1"


class Report:
    def __init__(self):
        self.lines = [REPORT_HEADER]

    def add(self, *parts):
        self.lines.append(" ".join(str(p) for p in parts))

    def text(self):
        return "\n".join(self.lines) + "\n"
