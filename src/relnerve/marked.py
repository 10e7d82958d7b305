"""Marked simplicial sets: markings, equivalence witnesses, localization by
gluing walking isomorphisms, marked relative nerves, over-base mapping
spaces, and the two rectification functors between diagrams and objects over
the base nerve."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import (CatFunctor, FinCategory, SSetDiagram,
                     chain_object_of_key, nerve, nerve_map, under_category)
from .pathspace import lurie_grothendieck
from .sset import (Exponential, KeyedSSet, SimplicialMap, SSetError,
                   TruncationError, TruncSSet, coequalize_disjoint, descend,
                   first_map, identity_map, keyed_tables, sub_sset,
                   walking_iso)


class MarkError(Exception):
    pass


def degenerate_edges(X):
    if X.cap < 1:
        return frozenset()
    return frozenset(X.degens[0][0][v] for v in X.simplices(0))


@dataclass(frozen=True)
class MarkedSSet:
    sset: TruncSSet
    marked: frozenset

    def __post_init__(self):
        if self.sset.cap < 1:
            if self.marked:
                raise MarkError("marked set on a 0-truncated object")
            return
        if not degenerate_edges(self.sset) <= self.marked:
            raise MarkError("degenerate edges must be marked")
        if any(e >= self.sset.counts[1] for e in self.marked):
            raise MarkError("marked set contains a non-edge")

    def is_marked(self, e):
        return e in self.marked


@dataclass(frozen=True)
class EquivalenceWitness:
    edge: int
    inverse: int
    left: int        # 2-simplex: d0=inverse, d2=edge, d1=degenerate at source
    right: int       # 2-simplex: d0=edge, d2=inverse, d1=degenerate at target


def _witness_ok(X, w):
    f1, f2 = X.faces[1], X.faces[2]
    a = f1[1][w.edge]
    b = f1[0][w.edge]
    sa = X.degens[0][0][a]
    sb = X.degens[0][0][b]
    return (f1[1][w.inverse] == b and f1[0][w.inverse] == a
            and f2[0][w.left] == w.inverse and f2[2][w.left] == w.edge
            and f2[1][w.left] == sa
            and f2[0][w.right] == w.edge and f2[2][w.right] == w.inverse
            and f2[1][w.right] == sb)


def equivalences(X):
    """All edges admitting a two-triangle invertibility witness.

    Returns a dict edge -> EquivalenceWitness (first witness in id order).
    """
    if X.cap < 2:
        raise MarkError("equivalence search needs cap >= 2")
    by_d2 = X.face_index(2)[2]
    out = {}
    for y in X.simplices(1):
        a = X.faces[1][1][y]
        b = X.faces[1][0][y]
        sa = X.degens[0][0][a]
        sb = X.degens[0][0][b]
        found = None
        for left in by_d2.get(y, ()):
            if X.faces[2][1][left] != sa:
                continue
            inv = X.faces[2][0][left]
            if X.faces[1][1][inv] != b or X.faces[1][0][inv] != a:
                continue
            for right in by_d2.get(inv, ()):
                if X.faces[2][1][right] == sb and \
                        X.faces[2][0][right] == y:
                    found = EquivalenceWitness(y, inv, left, right)
                    break
            if found:
                break
        if found:
            assert _witness_ok(X, found)
            out[y] = found
    return out


def mark(X, mode):
    """flat: degenerate edges only; sharp: all; natural: equivalences."""
    if mode == "flat":
        return MarkedSSet(X, degenerate_edges(X))
    if mode == "sharp":
        if X.cap < 1:
            raise MarkError("the sharp marking needs cap >= 1")
        return MarkedSSet(X, frozenset(range(X.counts[1])))
    if mode == "natural":
        return MarkedSSet(X, frozenset(equivalences(X)) |
                          degenerate_edges(X))
    raise MarkError("unknown marking mode %r" % (mode,))


# -- localization -------------------------------------------------------------

@dataclass
class Localization:
    total: TruncSSet
    proj: SimplicialMap          # S -> S[E^{-1}], the injection leg
    marked_image: frozenset
    glued_edges: list            # the nondegenerate marked edges, in order
    j_legs: list                 # one map J -> total per glued edge


def localize(M):
    """Glue one walking isomorphism J along each nondegenerate marked edge:
    the quotient of S + J + ... + J identifying the monotone simplices of the
    c-th J (the edge (0, 1), its faces and degeneracies) with those of the
    c-th glued edge.  Degenerate marked edges are already invertible and are
    not glued, so flat objects localize to themselves."""
    S = M.sset
    cap = S.cap
    degflags = S.degenerate_flags(1)
    glued = sorted(e for e in M.marked if not degflags[e])
    if not glued:
        return Localization(S, identity_map(S), frozenset(M.marked), [], [])
    J = walking_iso(cap)
    monotone = [(n, S.op_table(1, key), j) for n in range(cap + 1)
                for j, key in enumerate(J.keys[n]) if list(key) == sorted(key)]
    total, legs = coequalize_disjoint(
        [S] + [J] * len(glued), ((0, n, table[e], c, j)
                                 for c, e in enumerate(glued, 1)
                                 for n, table, j in monotone))
    image = frozenset(legs[0].comp[1][e] for e in M.marked)
    return Localization(total, legs[0], image, glued, legs[1:])


def extend_along_J(S, y):
    """A simplicial map J -> S sending the generator edge to y: the first
    map the kernel's search finds with both vertices and the generator edge
    pinned.  Returns None when no extension exists below the cap (reported,
    not fatal: the extension claim is not constructive in general).
    """
    J = walking_iso(S.cap)
    pins = {(0, J.id_of(0, (0,))): S.faces[1][1][y],
            (0, J.id_of(0, (1,))): S.faces[1][0][y],
            (1, J.id_of(1, (0, 1))): y}
    table = first_map(J, S, lambda n, s, b: pins.get((n, s), b) == b)
    return None if table is None else SimplicialMap(J, S, table)


def localization_mediator(loc, G, extensions=None):
    """The universal map out of a localization.

    Given ``G`` from the localized object's source into some target sending
    every glued edge to an edge with a J-extension, produce the unique U
    with ``U o p = G`` and ``U o j_legs[c] = extensions[c]`` (by default
    the first J-extension of each glued edge's image).  Returns None when
    some extension is missing; raises ``SSetError`` when an extension does
    not agree with G on the glued edge.
    """
    if loc.proj.domain is not G.domain:
        raise SSetError("mediator source mismatch")
    if extensions is None:
        extensions = [extend_along_J(G.codomain, G.comp[1][e])
                      for e in loc.glued_edges]
    if None in extensions:
        return None
    return descend([loc.proj] + loc.j_legs, [G] + list(extensions))


# -- marked diagrams ----------------------------------------------------------

@dataclass
class MarkedDiagram:
    shape: FinCategory
    values: list
    maps: list

    @property
    def cap(self):
        return self.values[0].sset.cap

    def underlying(self):
        return SSetDiagram(self.shape, [v.sset for v in self.values],
                           self.maps)

    def validate(self):
        bad = self.underlying().validate()
        for m in range(self.shape.n_morphisms):
            tgt = self.values[self.shape.tgt[m]]
            src = self.values[self.shape.src[m]]
            for e in src.marked:
                if self.maps[m].comp[1][e] not in tgt.marked:
                    bad.append(("marking-not-preserved", m, e))
        return bad


def mark_diagram(F, mode):
    """Apply a marking objectwise; 'natural' is the equivalence marking."""
    values = [mark(V, mode) for V in F.values]
    return MarkedDiagram(F.shape, values, list(F.maps))


def colim_marked(F):
    """Degreewise colimit of a marked diagram: quotient of the disjoint
    union by the transport relations, marking the images of marked edges."""
    U = F.underlying()
    Q, qmaps = coequalize_disjoint(U.values, U.transport_relations())
    marked = frozenset(q.comp[1][e] for q, V in zip(qmaps, F.values)
                       for e in V.marked)
    return MarkedSSet(Q, marked), qmaps


# -- objects over the base nerve ----------------------------------------------

@dataclass
class OverMarked:
    """A marked simplicial set equipped with a projection to a base nerve."""
    marked: MarkedSSet
    proj: SimplicialMap
    base_nerve: object
    shape: FinCategory

    @property
    def sset(self):
        return self.marked.sset


def marked_rel_nerve(F, cap):
    """The relative nerve of the underlying diagram, with an edge (e, h)
    marked exactly when its fiber component h is marked in the value at the
    target of e."""
    if cap < 1:
        raise TruncationError("the marked relative nerve needs cap >= 1 "
                              "for its edges")
    R = lurie_grothendieck(F.underlying(), cap)
    C = F.shape
    NC = R.base_nerve
    marked = set()
    for s in R.total.simplices(1):
        sid, (b0, b1) = R.total.key_of(1, s)
        arrow = NC.key_of(1, sid)[0]
        if b1 in F.values[C.tgt[arrow]].marked:
            marked.add(s)
    return OverMarked(MarkedSSet(R.total, frozenset(marked)), R.proj, NC, C), R


def under_nerve_sharp(C, d, cap, NC=None):
    """N(d/D) with every edge marked, over N(D) via the forgetful functor."""
    U, forget, objs, arrow_keys = under_category(C, d)
    NU = nerve(U, cap)
    NC = NC if NC is not None else nerve(C, cap)
    proj = nerve_map(forget, cap, NU, NC)
    return OverMarked(mark(NU, "sharp"), proj, NC, C), U, forget, objs, \
        arrow_keys


class OverMappingSpace:
    """The marked mapping object over the base: the kernel's mapping object
    [X => Y] restricted to the maps (Delta[n] flat) x X -> Y that commute
    with the projections and preserve markings; an n-simplex is keyed as
    in ``Exponential``, and ``table``/``id_of`` take full value tables.

    ``sharp()`` is its sharp part, the simplices all of whose edges are
    marked.
    """

    def __init__(self, X, Y, cap_out):
        if X.base_nerve.counts != Y.base_nerve.counts:
            raise SSetError("different base nerves")
        self.X, self.Y = X, Y
        self.cap_out = cap_out
        self.sset = Exponential(Y.sset, X.sset, cap_out,
                                admissible=self._admissible)
        self.deltas, self.prisms = self.sset.deltas, self.sset.prisms
        self.table, self.id_of = self.sset.table, self.sset.id_of
        self.marked_set = frozenset(
            e for e in range(self.sset.counts[1]) if self._edge_marked(e)) \
            if cap_out >= 1 else frozenset()

    def _admissible(self, prism, m, s, b):
        """Over the base, and a marked X-edge paired with a degenerate
        Delta-edge lands on a marked edge."""
        _, pr1, pr2 = prism
        if self.Y.proj.comp[m][b] != self.X.proj.comp[m][pr2.comp[m][s]]:
            return False
        return not (m == 1
                    and pr1.codomain.degenerate_flags(1)[pr1.comp[1][s]]
                    and self.X.marked.is_marked(pr2.comp[1][s])
                    and not self.Y.marked.is_marked(b))

    def _edge_marked(self, e):
        """An edge is marked when it underlies a map from the sharp cylinder:
        every prism edge with marked X-part lands on a marked edge."""
        P, pr1, pr2 = self.prisms[1]
        return all(self.Y.marked.is_marked(self.sset.value(1, e, 1, s))
                   for s in P.simplices(1)
                   if self.X.marked.is_marked(pr2.comp[1][s]))

    def as_marked(self):
        return MarkedSSet(self.sset,
                          self.marked_set | degenerate_edges(self.sset))

    def sharp(self):
        """The sub-simplicial set of the simplices all of whose edges are
        marked, with every edge marked."""
        X = self.sset
        marked = self.as_marked().marked
        ids = []
        for n in range(self.cap_out + 1):
            edges = [X.op_table(n, e)
                     for e in itertools.combinations(range(n + 1), 2)]
            ids.append([s for s in X.simplices(n)
                        if all(t[s] in marked for t in edges)])
        sub, _ = sub_sset(X, ids)
        # at cap_out 0 there are no edges to mark
        return mark(sub, "sharp" if self.cap_out else "flat")


# -- the two rectification functors -------------------------------------------

def unstraighten_at(X, d):
    """The left-adjoint value at d: pullback of X along N(D/d) -> N(D),
    with the induced marking."""
    C = X.shape
    NC = X.base_nerve
    cap = X.sset.cap
    keys = []
    for n in range(cap + 1):
        layer = []
        for x in X.sset.simplices(n):
            sid = X.proj.comp[n][x]
            last = chain_object_of_key(C, NC.key_of(n, sid), n, n)
            for g in C.hom(last, d):
                layer.append((x, g))
        keys.append(layer)

    def face_key(n, i, key):
        x, g = key
        if i < n:
            return (X.sset.faces[n][i][x], g)
        sid = X.proj.comp[n][x]
        k = NC.key_of(n, sid)
        tail = k[n - 1] if n >= 1 else C.identity[k[0]]
        return (X.sset.faces[n][n][x], C.table[(g, tail)])

    def deg_key(n, i, key):
        x, g = key
        return (X.sset.degens[n][i][x], g)

    total = KeyedSSet(cap, *keyed_tables(cap, keys, face_key, deg_key))
    marked = frozenset(s for s in total.simplices(1)
                       if total.key_of(1, s)[0] in X.marked.marked)
    value = MarkedSSet(total, marked)
    first = SimplicialMap(total, X.sset,
                          [[total.key_of(n, s)[0] for s in total.simplices(n)]
                           for n in range(cap + 1)])
    return value, first


def unstraighten_diagram(X):
    """The full left-adjoint diagram d -> X x_{N(D)} N(D/d)."""
    C = X.shape
    values, firsts, totals = [], [], []
    for d in range(C.n_objects):
        v, first = unstraighten_at(X, d)
        values.append(v)
        firsts.append(first)
        totals.append(v.sset)
    maps = []
    for m in range(C.n_morphisms):
        a, b = C.src[m], C.tgt[m]
        comp = [[totals[b].id_of(n, (totals[a].key_of(n, s)[0],
                                     C.table[(m, totals[a].key_of(n, s)[1])]))
                 for s in totals[a].simplices(n)]
                for n in range(X.sset.cap + 1)]
        maps.append(SimplicialMap(totals[a], totals[b], comp))
    return MarkedDiagram(C, values, maps), firsts


@dataclass
class Rectified:
    diagram: MarkedDiagram
    spaces: list                 # OverMappingSpace per object
    unders: list                 # (U, forget, objs) per object


def rectify_right(X, cap_out):
    """The right-adjoint diagram d -> [N(d/D) sharp, X]^+_D, with the
    precomposition action along slice functors."""
    C = X.shape
    cap = X.sset.cap
    spaces, unders, overs = [], [], []
    for d in range(C.n_objects):
        over, U, forget, objs, arrow_keys = under_nerve_sharp(
            C, d, cap, NC=X.base_nerve)
        sp = OverMappingSpace(over, X, cap_out)
        spaces.append(sp)
        unders.append((U, forget, objs, arrow_keys))
        overs.append(over)
    values = [sp.as_marked() for sp in spaces]
    maps = []
    for m in range(C.n_morphisms):
        a, b = C.src[m], C.tgt[m]
        Ua, _, objs_a, keys_a = unders[a]
        Ub, _, objs_b, keys_b = unders[b]
        # slice functor b/D -> a/D: (g: b -> e) -> (g o m : a -> e)
        obj_map = [objs_a.index(C.table[(g, m)]) for g in objs_b]
        inv_b = {i: pair for pair, i in keys_b.items()}
        mor_map = []
        for mi in range(Ub.n_morphisms):
            gi, e = inv_b[mi]
            mor_map.append(keys_a[(obj_map[gi], e)])
        slice_fun = CatFunctor(Ub, Ua, obj_map, mor_map)
        nm = nerve_map(slice_fun, cap, overs[b].sset, overs[a].sset)
        maps.append(spaces[a].sset.precompose(nm, spaces[b].sset))
    diagram = MarkedDiagram(C, values, maps)
    return Rectified(diagram, spaces, unders)
