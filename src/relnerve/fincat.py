"""Finite categories, functors, diagrams, nerves and slice categories.

Objects and morphisms are dense integer indices; composition is an explicit
table, so validation is exhaustive and decidable.  Display names live in a
symbol table used only for reports.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass

from .sset import (KeyedSSet, SimplicialMap, SSetError, TruncationError,
                   TruncSSet, discrete, identity_map, operator_tables,
                   restrict, sub_sset)


class CatError(Exception):
    pass


class FinCategory:
    def __init__(self, n_objects, src, tgt, identity, table,
                 obj_names=None, mor_names=None):
        self.n_objects = n_objects
        self.src = list(src)
        self.tgt = list(tgt)
        self.identity = list(identity)      # object -> morphism id
        self.table = dict(table)            # (g, f) -> g o f, tgt(f)=src(g)
        self.obj_names = obj_names or [str(i) for i in range(n_objects)]
        self.mor_names = mor_names or ["m%d" % i for i in range(len(src))]

    @property
    def n_morphisms(self):
        return len(self.src)

    def hom(self, a, b):
        return [m for m in range(self.n_morphisms)
                if self.src[m] == a and self.tgt[m] == b]

    def is_identity(self, m):
        return self.identity[self.src[m]] == m

    def is_iso(self, m):
        """Two-sided invertibility, by table search."""
        a, b = self.src[m], self.tgt[m]
        for w in self.hom(b, a):
            if self.table[(w, m)] == self.identity[a] and \
                    self.table[(m, w)] == self.identity[b]:
                return True
        return False


def validate_category(C):
    """Report every violated unit/associativity/typing equation."""
    report = []
    for o in range(C.n_objects):
        e = C.identity[o]
        if C.src[e] != o or C.tgt[e] != o:
            report.append(("identity-typing", o))
    for (g, f), h in C.table.items():
        if C.tgt[f] != C.src[g]:
            report.append(("table-on-noncomposable", g, f))
            continue
        if C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g]:
            report.append(("composite-typing", g, f))
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            if C.tgt[f] == C.src[g] and (g, f) not in C.table:
                report.append(("missing-composite", g, f))
    for f in range(C.n_morphisms):
        if C.table.get((C.identity[C.tgt[f]], f)) != f:
            report.append(("left-unit", f))
        if C.table.get((f, C.identity[C.src[f]])) != f:
            report.append(("right-unit", f))
    for f in range(C.n_morphisms):
        for g in range(C.n_morphisms):
            if C.tgt[f] != C.src[g]:
                continue
            gf = C.table.get((g, f))
            if gf is None:
                continue
            for h in range(C.n_morphisms):
                if C.tgt[g] != C.src[h]:
                    continue
                hg = C.table.get((h, g))
                if hg is None:
                    continue
                if C.table.get((h, gf)) != C.table.get((hg, f)):
                    report.append(("associativity", h, g, f))
    return report


def keyed_category(objects, morphisms, src, tgt, unit, compose, **names):
    """The one builder of a FinCategory from keys, with the key -> id dict
    of its objects and of its morphisms.

    Ids are the positions of the keys in ``objects`` and ``morphisms``,
    taken in the order given.  ``src(m)`` and ``tgt(m)`` return object
    keys, ``unit(o)`` a morphism key, and ``compose(g, f)`` the key of
    g o f; it is called only on composable pairs, found by grouping the
    morphisms by their source.  ``names`` are passed to FinCategory.
    """
    obj_id = {o: i for i, o in enumerate(objects)}
    mor_id = {m: i for i, m in enumerate(morphisms)}
    s = [obj_id[src(m)] for m in morphisms]
    t = [obj_id[tgt(m)] for m in morphisms]
    out_of = [[] for _ in obj_id]
    for i, m in enumerate(morphisms):
        out_of[s[i]].append((i, m))
    table = {(j, i): mor_id[compose(g, f)]
             for i, f in enumerate(morphisms) for j, g in out_of[t[i]]}
    C = FinCategory(len(obj_id), s, t, [mor_id[unit(o)] for o in objects],
                    table, **names)
    return C, obj_id, mor_id


def category_from_generators(n_objects, generators):
    """Free category on a DAG of generators (src, tgt) with src < tgt.

    Acyclicity keeps the morphism set finite; composition is path
    concatenation.  Morphisms are identity paths plus all generator paths,
    keyed (src, tgt, path) and numbered in sorted order.
    """
    for (a, b) in generators:
        if not a < b:
            raise CatError("generators must go strictly upward (DAG)")
    # enumerate all composable generator sequences
    all_paths = []
    for o in range(n_objects):
        stack = [(o, ())]
        while stack:
            at, p = stack.pop()
            all_paths.append((o, at, p))
            for gi, (a, b) in enumerate(generators):
                if a == at:
                    stack.append((b, p + (gi,)))
    all_paths.sort()
    mor_names = ["id_%d" % a if not p else "*".join("g%d" % gi
                                                    for gi in reversed(p))
                 for (a, b, p) in all_paths]
    C = keyed_category(range(n_objects), all_paths, operator.itemgetter(0),
                       operator.itemgetter(1), lambda o: (o, o, ()),
                       lambda g, f: (f[0], g[1], f[2] + g[2]),
                       mor_names=mor_names)[0]
    C.gen_paths = all_paths
    return C


def terminal_category():
    return FinCategory(1, [0], [0], [0], {(0, 0): 0}, obj_names=["*"])


def arrow_category():
    """The poset [1]: objects 0, 1 and one nonidentity arrow."""
    return category_from_generators(2, [(0, 1)])


def _thin_category(n_objects, related):
    """The category with one morphism a -> b for each pair with
    ``related(a, b)`` (reflexive and transitive), numbered in the
    lexicographic order of the pairs."""
    pairs = [(a, b) for a in range(n_objects) for b in range(n_objects)
             if related(a, b)]
    return keyed_category(range(n_objects), pairs, operator.itemgetter(0),
                          operator.itemgetter(1), lambda o: (o, o),
                          lambda g, f: (f[0], g[1]))[0]


def chain_category(n):
    """The poset 0 < 1 < ... < n with all composites identified."""
    return _thin_category(n + 1, lambda a, b: a <= b)


def span_category():
    """The span a <- c -> b, with apex listed last (objects a=0, b=1, c=2)."""
    src = [0, 1, 2, 2, 2]
    tgt = [0, 1, 2, 0, 1]
    identity = [0, 1, 2]
    table = {}
    for m in range(5):
        table[(m, identity[src[m]])] = m
        table[(identity[tgt[m]], m)] = m
    return FinCategory(3, src, tgt, identity, table,
                       obj_names=["a", "b", "c"],
                       mor_names=["id_a", "id_b", "id_c", "p", "q"])


def cyclic_group_category(k):
    """One-object category whose morphisms form Z/k."""
    src = [0] * k
    tgt = [0] * k
    table = {(g, f): (g + f) % k for g in range(k) for f in range(k)}
    return FinCategory(1, src, tgt, [0], table,
                       mor_names=["g%d" % i for i in range(k)])


def indiscrete_groupoid(n_objects):
    """Exactly one morphism between any ordered pair of objects."""
    return _thin_category(n_objects, lambda a, b: True)


class CatFunctor:
    def __init__(self, domain, codomain, obj_map, mor_map):
        self.domain = domain
        self.codomain = codomain
        self.obj_map = list(obj_map)
        self.mor_map = list(mor_map)

    def validate(self):
        bad = []
        C, D = self.domain, self.codomain
        for m in range(C.n_morphisms):
            if D.src[self.mor_map[m]] != self.obj_map[C.src[m]] or \
                    D.tgt[self.mor_map[m]] != self.obj_map[C.tgt[m]]:
                bad.append(("typing", m))
        for o in range(C.n_objects):
            if self.mor_map[C.identity[o]] != D.identity[self.obj_map[o]]:
                bad.append(("identity", o))
        for (g, f), h in C.table.items():
            # images that are not composable (a typing defect) have none
            if D.table.get((self.mor_map[g], self.mor_map[f])) != \
                    self.mor_map[h]:
                bad.append(("composition", g, f))
        return bad


def identity_functor(C):
    return CatFunctor(C, C, range(C.n_objects), range(C.n_morphisms))


def compose_functors(G, F):
    return CatFunctor(F.domain, G.codomain,
                      [G.obj_map[o] for o in F.obj_map],
                      [G.mor_map[m] for m in F.mor_map])


# -- nerve -------------------------------------------------------------------

def nerve(C, cap):
    """N(C): degree-n simplices are length-n composable morphism strings,
    an object in degree 0.

    Each degree is built whole.  A string of length n >= 2 extends its
    d_n, the parent string, by one arrow m out of its target.  The
    extensions of one string are consecutive and in the order of the arrows
    out of that target, so the keys come out sorted and the extension of s
    by m has id ``first[s] + rank[m]``.  Every other face and degeneracy of
    an extension is the extension of the same operator on the parent: d_0
    drops the first arrow, a middle face composes two neighbours through
    ``C.table``, and s_i inserts an identity; only the face composing the
    last two arrows and the degeneracy after the last arrow change m.
    """
    table, identity, src, tgt = C.table, C.identity, C.src, C.tgt
    out_of, rank = [[] for _ in range(C.n_objects)], []
    for m in range(C.n_morphisms):
        rank.append(len(out_of[src[m]]))    # m's place among the arrows
        out_of[src[m]].append(m)            # out of its source
    keys = [[(o,) for o in range(C.n_objects)],
            [(m,) for m in range(C.n_morphisms)]][:cap + 1]
    faces = [None, [list(tgt), list(src)]][:cap + 1]
    degens = [[list(identity)]]
    last = [None, list(range(C.n_morphisms))]   # last[n][s]: its last arrow
    # first[n][s]: the id of the first extension of s; the tables look up
    # ids[n][first + rank] so that each id is one shared int object
    first, ids = [None], [list(range(len(ks))) for ks in keys]
    for n in range(2, cap + 1):
        ext = [out_of[tgt[m]] for m in last[n - 1]]
        first.append(list(itertools.accumulate(map(len, ext), initial=0)))
        parent = [q for q, ms in zip(ids[n - 1], ext) for _ in ms]
        arrow = [m for ms in ext for m in ms]
        keys.append([keys[n - 1][q] + (m,) for q, m in zip(parent, arrow)])
        ids.append(list(range(len(keys[n]))))
        last.append(arrow)
        # d_i (q, m) = (d_i q, m) for i < n - 1, and d_{n-1} composes m
        # with the last arrow of q; in degree 2, (m,) and (m o q,)
        if n == 2:
            inner = [arrow, [table[m, q] for q, m in zip(parent, arrow)]]
        else:
            at, up, to = first[n - 2], faces[n - 1], ids[n - 1]
            inner = [[to[at[up[i][q]] + rank[m]] for q, m in zip(parent,
                                                                  arrow)]
                     for i in range(n - 1)]
            inner.append([to[at[up[n - 1][q]]
                             + rank[table[m, last[n - 1][q]]]]
                          for q, m in zip(parent, arrow)])
        faces.append(inner + [parent])
        # degree n - 1, whose extensions are now listed: s_i (q, m) =
        # (s_i q, m) for i < n - 1, and s_{n-1} appends an identity
        d, at, to = n - 1, first[n - 1], ids[n]
        degens.append([[to[at[degens[d - 1][i][q]] + rank[m]]
                        for q, m in zip(faces[d][d], last[d])]
                       for i in range(d)]
                      + [[to[at[s] + rank[identity[tgt[m]]]]
                          for s, m in enumerate(last[d])]])
    for ks in keys:
        assert all(map(operator.lt, ks, ks[1:])), "nerve keys out of order"
    index = [dict(zip(ks, ns)) for ks, ns in zip(keys, ids)]
    return KeyedSSet(cap, keys, index, faces, degens[:cap])


def chain_objects(C, key, n):
    """The vertices c_0..c_n (objects of C) of a degree-n nerve simplex
    key."""
    return key if n == 0 else (C.src[key[0]],) + tuple(map(C.tgt.__getitem__,
                                                           key))


def chain_arrows(C, key, n):
    """The composites of a degree-n nerve simplex key: ``[a][j]`` is
    sigma(a, j) for a <= j, the identity at j = a, and None below the
    diagonal."""
    out = []
    for a, c in enumerate(chain_objects(C, key, n)):
        row = [None] * a + [C.identity[c]]
        for j in range(a, n):
            row.append(key[j] if j == a else C.table[key[j], row[-1]])
        out.append(row)
    return out


def nerve_map(F, cap, NC=None, ND=None):
    """N(F): the simplicial map between nerves induced by a functor.  Each
    degree maps the key columns of N(domain) through F and looks the
    mapped keys up in N(codomain) in one pass; a string that F does not
    send to a composable one is a KeyError."""
    NC = NC if NC is not None else nerve(F.domain, cap)
    ND = ND if ND is not None else nerve(F.codomain, cap)
    comp = []
    for n in range(cap + 1):
        table = F.mor_map if n else F.obj_map
        cols = [map(table.__getitem__, col) for col in zip(*NC.keys[n])]
        comp.append(list(map(ND.index[n].__getitem__, zip(*cols))))
    return SimplicialMap(NC, ND, comp)


# -- total spaces over the nerve ---------------------------------------------

@dataclass
class RelNerveObject:
    """A total space over the base nerve, keyed by pairs (sid, p) of a base
    simplex id and its fiber data; ``proj`` sends a key to ``sid``."""
    total: TruncSSet
    proj: SimplicialMap
    base_nerve: object
    diagram: object             # SSetDiagram or MarkedDiagram
    marked: object = None       # marked edges of a marked bar construction


class _FibreIndex:
    """The ids of one degree of an ``over_nerve`` total, one dict (or
    ``_WholeFibre``) per fibre: the key (sid, p) has id ``ids[sid][p]``."""

    def __init__(self, ids):
        self.ids = ids

    def __getitem__(self, key):
        sid, p = key
        return self.ids[sid][p]


class _WholeFibre(Mapping):
    """The p -> id dict of a fibre listed as ``range(count)``, a whole
    value, kept as its first id: p has id ``offset + p``."""

    def __init__(self, offset, count):
        self.offset, self.span = offset, range(count)

    def __getitem__(self, p):
        if p in self.span:
            return self.offset + p
        raise KeyError(p)

    def __iter__(self):
        return iter(self.span)

    def __len__(self):
        return len(self.span)

    def values(self):
        return range(self.offset, self.offset + len(self.span))


def over_nerve(NC, cap, fiber, op):
    """The KeyedSSet of keys (sid, p), p in ``fiber(n, key)`` for the chain
    key of sid, with its projection to the nerve NC.

    Each fibre must be listed in sorted order.  The key (sid, p) then has
    id offset + position: the number of simplices over the base simplices
    before sid, plus the place of p in its fibre, which is its place among
    all the sorted keys.  The ids of the fibre over sid, a p -> id dict, are
    ``index[n].ids[sid]``.  d_i (``d = -1``) and s_i (``d = 1``) move sid by
    the operators of NC, the nerve rule, and p by the reads (see ``_read``)
    that ``op(n, i, d, key)`` returns, given the chain key of sid.  So
    ``op`` is called once per base simplex and operator, and each fibre is
    split into columns once per degree.

    A fibre listed as ``range(count)`` is a whole value, as in the bar
    construction: p has id offset + p, so no dict is built (its ids still
    read as one, see ``_WholeFibre``).  Its one read, a list that lists the
    new data, lands in another whole fibre as that list plus the target's
    offset, once its entries are known to lie in the target: the smallest
    and largest entries of each table are taken once per build, kept by
    the table's id, and a read that leaves the target is a KeyError, as
    from a dict.
    """
    fibres, index = [], []
    for n in range(cap + 1):
        fibs = [fiber(n, k) for k in NC.keys[n]]
        ids, offset = [], 0
        for sid, fib in enumerate(fibs):
            if type(fib) is range and fib == range(len(fib)):
                ids.append(_WholeFibre(offset, len(fib)))
            elif all(map(operator.lt, fib, fib[1:])):
                ids.append({p: offset + j for j, p in enumerate(fib)})
            else:
                raise SSetError("the fibre over base simplex %d in degree %d"
                                " is not listed in sorted order" % (sid, n))
            offset += len(fib)
        fibres.append(fibs)
        index.append(_FibreIndex(ids))

    # the tables are laid out empty, then filled one degree at a time
    faces, degens = operator_tables(cap, lambda n, i, d: [])
    # id(table) -> (its largest entry, or inf if one is negative, and the
    # table, kept so that no id is reused within the build)
    highest = {}
    for n in range(cap + 1):
        ops = [(i, d, NC.operator(n, i, d), index[n + d].ids,
                (faces if d < 0 else degens)[n][i])
               for d in (-1, 1) if 0 <= n + d <= cap for i in range(n + 1)]
        for sid, (key, fib, own) in enumerate(zip(
                NC.keys[n], fibres[n], index[n].ids)):
            if not fib:
                continue
            if type(own) is not _WholeFibre:
                tuples = isinstance(fib[0], tuple)
                cols = list(zip(*fib)) if tuples else [fib]
                for i, d, targets, ids, row in ops:
                    row += map(ids[targets[sid]].__getitem__,
                               _read(cols, op(n, i, d, key), tuples))
                continue
            for i, d, targets, ids, row in ops:
                (_, table), = op(n, i, d, key)
                if table is None:
                    table = fib
                elif type(table) is not list or len(table) != len(fib):
                    table = list(map(table.__getitem__, fib))
                to = ids[targets[sid]]
                if type(to) is not _WholeFibre:
                    row += map(to.__getitem__, table)
                    continue
                top = highest.get(id(table))
                if top is None:
                    top = highest[id(table)] = (
                        max(table) if min(table) >= 0 else math.inf, table)
                if top[0] >= len(to.span):
                    raise KeyError("a read leaves the fibre over base "
                                   "simplex %d in degree %d"
                                   % (targets[sid], n + d))
                row += map(to.offset.__add__, table)

    keys = [[(sid, p) for sid, fib in enumerate(fibs) for p in fib]
            for fibs in fibres]
    total = KeyedSSet(cap, keys, index, faces, degens)
    proj = SimplicialMap(total, NC, [[sid for sid, _ in keys[n]]
                                     for n in range(cap + 1)])
    return total, proj


def map_over_nerve(NC, S, T, op):
    """The map between the ``over_nerve`` totals S and T over NC that keeps
    each base simplex.  ``op(n, key)`` gives the reads (see ``_read``) of the
    new data, once per base simplex; they are applied to the columns of the
    fibre ``S.index[n].ids[sid]`` and zipped straight into
    ``T.index[n].ids[sid]``, so a read that leaves that fibre is a KeyError."""
    comp = []
    for n in range(S.cap + 1):
        row = []
        # the data of one degree are all tuples or all scalars
        source, target = (bool(X.keys[n]) and
                          isinstance(X.keys[n][0][1], tuple) for X in (S, T))
        for key, fib, to in zip(NC.keys[n], S.index[n].ids, T.index[n].ids):
            if fib:
                cols = list(zip(*fib)) if source else [fib]
                row += map(to.__getitem__, _read(cols, op(n, key), target))
        comp.append(row)
    return SimplicialMap(S, T, comp)


def _read(cols, reads, tuples):
    """The new data that the reads make of a fibre's columns ``cols``: one
    read ``(k, table)`` per entry of the new data tuple, which is ``p[k]``
    when ``table`` is None and ``table[p[k]]`` otherwise.  Scalar data
    (``tuples`` false) is its one read column, taken directly, as the bar
    construction makes one such read per base simplex and operator."""
    if not tuples:
        (k, table), = reads
        return cols[k] if table is None else map(table.__getitem__, cols[k])
    return zip(*[cols[k] if table is None else map(table.__getitem__, cols[k])
                 for k, table in reads])


def over_constant(R, c):
    """Per degree, the fibre of the ``over_nerve`` total ``R.total`` over
    the constant chain at c: its data -> id dict, read from the index."""
    C, NC = R.diagram.shape, R.base_nerve
    chains = [(c,)] + [(C.identity[c],) * n for n in range(1, R.total.cap + 1)]
    return [R.total.index[n].ids[NC.id_of(n, k)] for n, k in enumerate(chains)]


def fiber_onto_value(R, c, X, to_value, from_value):
    """The fiber of ``R.total`` over the constant chains at c, its
    inclusion, and the mutually inverse pair onto the value X at c:
    ``to_value(n, p)`` is the n-simplex of X named by fiber data p, and
    ``from_value(n, x)`` the fiber data of x."""
    fibres = over_constant(R, c)
    selected = [list(f.values()) for f in fibres]
    fib, inc = sub_sset(R.total, selected)
    to = [[to_value(n, p) for p in f] for n, f in enumerate(fibres)]
    # the ids of a fibre are consecutive, so an id's place in the fiber is
    # the id less the fibre's first
    fro = [[f[from_value(n, x)] - ids[0] for x in X.simplices(n)]
           for n, (f, ids) in enumerate(zip(fibres, selected))]
    X = X if X.cap == R.total.cap else restrict(X, R.total.cap)
    return fib, inc, SimplicialMap(fib, X, to), SimplicialMap(X, fib, fro)


# -- slice categories --------------------------------------------------------

def under_category(C, d):
    """d/C: arrows g out of d, listed in id order as ``objs``; a morphism is
    keyed (gi, e), e an arrow out of the target of the gi-th object, from
    that object to e o g.  Returns the category, its forgetful functor to
    C, ``objs`` and the key -> id dict of the morphisms."""
    objs = [m for m in range(C.n_morphisms) if C.src[m] == d]
    position = {g: gi for gi, g in enumerate(objs)}
    keys = [(gi, e) for gi, g in enumerate(objs)
            for e in range(C.n_morphisms) if C.src[e] == C.tgt[g]]
    U, _, mor_id = keyed_category(
        range(len(objs)), keys, operator.itemgetter(0),
        lambda k: position[C.table[k[1], objs[k[0]]]],
        lambda gi: (gi, C.identity[C.tgt[objs[gi]]]),
        lambda g, f: (f[0], C.table[g[1], f[1]]),
        obj_names=[C.mor_names[m] for m in objs])
    forget = CatFunctor(U, C, [C.tgt[g] for g in objs], [e for _, e in keys])
    return U, forget, objs, mor_id


def over_category(C, d):
    """C/d: arrows g into d, the mirror image of ``under_category``; a
    morphism is keyed (gi, e), e an arrow into the source of the gi-th
    object, from g o e to that object.  ``unstraighten_at`` pulls back
    along the nerve of this slice without building it, pairing each simplex
    with an arrow into d directly."""
    objs = [m for m in range(C.n_morphisms) if C.tgt[m] == d]
    position = {g: gi for gi, g in enumerate(objs)}
    keys = [(gi, e) for gi, g in enumerate(objs)
            for e in range(C.n_morphisms) if C.tgt[e] == C.src[g]]
    O, _, mor_id = keyed_category(
        range(len(objs)), keys, lambda k: position[C.table[objs[k[0]], k[1]]],
        operator.itemgetter(0), lambda gi: (gi, C.identity[C.src[objs[gi]]]),
        lambda g, f: (g[0], C.table[g[1], f[1]]),
        obj_names=[C.mor_names[m] for m in objs])
    forget = CatFunctor(O, C, [C.src[g] for g in objs], [e for _, e in keys])
    return O, forget, objs, mor_id


# -- diagrams ----------------------------------------------------------------

class SSetDiagram:
    """A functor shape -> simplicial sets: a value per object, a simplicial
    map per morphism."""

    def __init__(self, shape, values, maps):
        self.shape = shape
        self.values = list(values)
        self.maps = list(maps)

    @property
    def cap(self):
        return self.values[0].cap

    def underlying(self):
        """The unmarked diagram: this one (``MarkedDiagram.underlying``
        forgets the markings)."""
        return self

    def require_cap(self, cap):
        """Refuse a construction up to degree ``cap`` on shallower values."""
        if self.cap < cap:
            raise TruncationError("diagram values are too shallow for cap=%d"
                                  % cap)

    def transport_relations(self):
        """The identifications ``(a, n, s, b, F(m)(s))``, one per morphism
        m: a -> b and simplex s of F(a), whose quotient of the disjoint
        union of the values is the degreewise colimit."""
        C = self.shape
        return [(C.src[m], n, s, C.tgt[m], self.maps[m].comp[n][s])
                for m in range(C.n_morphisms)
                for n in range(self.cap + 1)
                for s in self.values[C.src[m]].simplices(n)]

    def validate(self):
        bad = []
        C = self.shape
        for m in range(C.n_morphisms):
            f = self.maps[m]
            if f.domain is not self.values[C.src[m]] or \
                    f.codomain is not self.values[C.tgt[m]]:
                bad.append(("endpoints", m))
            if f.validate():
                bad.append(("not-simplicial", m))
        for o in range(C.n_objects):
            if self.maps[C.identity[o]].comp != \
                    [list(range(self.values[o].counts[n]))
                     for n in range(self.values[o].cap + 1)]:
                bad.append(("identity", o))
        for (g, f), h in C.table.items():
            want = self.maps[h].comp
            got = [[self.maps[g].comp[n][self.maps[f].comp[n][s]]
                    for s in range(self.values[C.src[f]].counts[n])]
                   for n in range(self.cap + 1)]
            if want != got:
                bad.append(("functoriality", g, f))
        return bad


class CatDiagram:
    """A functor shape -> Cat."""

    def __init__(self, shape, values, maps):
        self.shape = shape
        self.values = list(values)
        self.maps = list(maps)

    def validate(self):
        bad = []
        C = self.shape
        for m in range(C.n_morphisms):
            F = self.maps[m]
            if F.validate():
                bad.append(("not-functorial-value", m))
        for o in range(C.n_objects):
            F = self.maps[C.identity[o]]
            if F.obj_map != list(range(self.values[o].n_objects)) or \
                    F.mor_map != list(range(self.values[o].n_morphisms)):
                bad.append(("identity", o))
        for (g, f), h in C.table.items():
            G, F, H = self.maps[g], self.maps[f], self.maps[h]
            if [G.obj_map[o] for o in F.obj_map] != H.obj_map or \
                    [G.mor_map[m] for m in F.mor_map] != H.mor_map:
                bad.append(("functoriality", g, f))
        return bad

    def nerve_diagram(self, cap):
        """Compose with the nerve: a simplicial-set-valued diagram."""
        nerves = [nerve(V, cap) for V in self.values]
        maps = [nerve_map(self.maps[m], cap,
                          nerves[self.shape.src[m]],
                          nerves[self.shape.tgt[m]])
                for m in range(self.shape.n_morphisms)]
        return SSetDiagram(self.shape, nerves, maps)


def constant_diagram(C, X):
    return SSetDiagram(C, [X] * C.n_objects,
                       [identity_map(X)] * C.n_morphisms)


def corepresentable_diagram(C, d, cap):
    """D(d,-) as a diagram of discrete simplicial sets."""
    values = []
    homs = []
    for o in range(C.n_objects):
        h = C.hom(d, o)
        homs.append(h)
        values.append(discrete(len(h), cap))
    maps = []
    for m in range(C.n_morphisms):
        a, b = C.src[m], C.tgt[m]
        post = [homs[b].index(C.table[(m, g)]) for g in homs[a]]
        # discrete sets: simplex id in every degree equals the point id
        comp = [[post[s] for s in range(values[a].counts[n])]
                for n in range(cap + 1)]
        maps.append(SimplicialMap(values[a], values[b], comp))
    return SSetDiagram(C, values, maps), homs
