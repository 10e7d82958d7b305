"""Higher mapping path spaces, the simplicial space they assemble into, and
the two equivalent relative-nerve constructions over a finite base category.

The degree-0 layer of a path space over an n-simplex of the base nerve is a
compatible tuple (b_0, ..., b_n) of honest simplices, b_i of dimension i in
the i-th value, each restricting to the transported previous one.  In
positive internal degree m the i-th coordinate is a prism map
Delta[m] x Delta[i] -> value, i.e. a degree-m simplex of the internal mapping
object; compatibility asks that postcomposition by the diagram map agrees
with restriction along the i-th coface.  The zeroth row of the assembled
bisimplicial object is the total space of the relative nerve.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .bisset import BiTruncSSet
from .fincat import (RelNerveObject, SSetDiagram, chain_arrows, chain_objects,
                     fiber_onto_value, map_over_nerve, nerve, over_nerve)
from .sset import (Exponential, KeyedSSet, SimplicialMap, TruncationError,
                   codegen_tuple, coface_tuple, discrete, disjoint_union,
                   group_positions, keyed_tables, operator_tables,
                   shared_simplex, shared_vertex_map)


# -- shared caches within one construction ----------------------------------

class _ExpCache:
    """Memoizes the mapping objects out of the shared standard simplices
    and the kernel's maps between them (see ``Exponential``)."""

    def __init__(self, cap):
        self.cap = cap
        self.exps = {}
        self.maps = {}

    def exp(self, Y, i, mcap):
        key = (id(Y), i, mcap)
        if key not in self.exps:
            self.exps[key] = Exponential(Y, shared_simplex(i, self.cap), mcap)
        return self.exps[key]

    def _map(self, key, build):
        if key not in self.maps:
            self.maps[key] = build()
        return self.maps[key]

    def restriction(self, E, vmap):
        """``E = [Delta[k] => Y] -> [Delta[j] => Y]``, the restriction along
        ``vmap: [j] -> [k]``, by the shared vertex map, whose prism plans are
        cached on the shared Delta[k] for every Y and every diagram."""
        return self._map(("restriction", E, vmap), lambda: E.precompose(
            shared_vertex_map(vmap, E.arg.counts[0] - 1, self.cap),
            self.exp(E.target, len(vmap) - 1, E.cap)))

    def postcomposition(self, E, i, f):
        """``E = [Delta[i] => Y] -> [Delta[i] => Y']`` along ``f: Y ->
        Y'``."""
        return self._map(("postcomposition", E, f), lambda: E.postcompose(
            f, self.exp(f.codomain, i, E.cap)))

    def transposed(self, E, m, V):
        return self._map(("transposed", E, m, V), lambda: E.transposed(m, V))


# -- path spaces -------------------------------------------------------------

class PathSpace:
    """The mapping path space over one base simplex, truncated at mcap.

    ``sset`` is the internal simplicial set; degree-m simplices are keyed by
    tuples of mapping-object ids, one per vertex of the base simplex.
    """

    def __init__(self, F, sigma_key, n, mcap, cache=None):
        self.F = F
        self.sigma_key = sigma_key
        self.n = n
        self.objects = chain_objects(F.shape, sigma_key, n)
        for o in self.objects:
            if F.values[o].cap < mcap + n:
                raise TruncationError(
                    "path space needs values of dimension >= %d, have %d"
                    % (mcap + n, F.values[o].cap))
        self.cache = cache or _ExpCache(F.cap)
        self.exps = [self.cache.exp(F.values[o], i, mcap)
                     for i, o in enumerate(self.objects)]
        keys = [self._tuples(m) for m in range(mcap + 1)]

        def op(m, j, d):
            tables = [e.operator(m, j, d) for e in self.exps]
            return lambda k: tuple([t[c] for t, c in zip(tables, k)])

        self.sset = KeyedSSet(mcap, *keyed_tables(mcap, keys, op))

    def _tuples(self, m):
        # b_i by the id of its restriction along d^i, met by b_{i-1} pushed
        # along the diagram map of the i-th arrow of the chain
        exps, cache = self.exps, self.cache
        return _chain_join(exps[0].simplices(m), (
            (group_positions(cache.restriction(
                exps[i], coface_tuple(i, i)).comp[m]),
             cache.postcomposition(exps[i - 1], i - 1, self.F.maps[
                 self.sigma_key[i - 1]]).comp[m])
            for i in range(1, self.n + 1)))


def _chain_join(first, steps):
    """The tuples (b_0, .., b_n) with b_0 in ``first`` and each b_i in
    ``groups.get(pushed[b_{i-1}])`` for the i-th step ``(groups,
    pushed)``: each coordinate met by the one before it, moved along the
    chain.  Sorted when ``first`` and every group are."""
    tuples = [(b,) for b in first]
    for groups, pushed in steps:
        tuples = [t + (b,) for t in tuples
                  for b in groups.get(pushed[t[-1]], ())]
    return tuples


def _coordinate_reads(n, i, d, table):
    """The reads (see ``over_nerve``) of d_i (``d = -1``) or s_i (``d =
    1``) on the chains of n + 1 coordinates: the coordinates before i, and
    the i-th under s_i, are kept; every other is ``table(k)`` of its
    neighbour k, the coordinate it moves from."""
    return [(j, None) for j in range(i + (d > 0))] + [
        (j - d, table(j - d)) for j in range(i + (d > 0), n + 1 + d)]


def path_space_zigzag(F, sigma_key, n, mcap):
    """Independent oracle: degreewise limit of the mapping-object zig-zag.

    Counts, for each internal degree m, the tuples (b_0, ..., b_n) with b_i
    in the mapping object [Delta[i] => F(sigma(i))] satisfying the pullback
    equations, by filtering the full product rather than by the incremental
    fiber search used by ``PathSpace``.
    """
    cache = _ExpCache(F.cap)
    exps = [cache.exp(F.values[o], i, mcap)
            for i, o in enumerate(chain_objects(F.shape, sigma_key, n))]
    arrows = chain_arrows(F.shape, sigma_key, n)
    # b_{i-1} pushed along the diagram map meets b_i restricted along d^i
    links = [(cache.postcomposition(exps[i - 1], i - 1, F.maps[
        arrows[i - 1][i]]).comp,
              cache.restriction(exps[i], coface_tuple(i, i)).comp)
             for i in range(1, n + 1)]
    return [sum(all(pushed[m][tup[i]] == restricted[m][tup[i + 1]]
                    for i, (pushed, restricted) in enumerate(links))
                for tup in itertools.product(*[range(e.counts[m])
                                               for e in exps]))
            for m in range(mcap + 1)]


# -- the simplicial space and its zeroth row ---------------------------------

@dataclass
class SimplicialSpace:
    bisset: BiTruncSSet             # rows[m]: KeyedSSet of (sigma_id, tuple)
    base_nerve: object
    proj: list                      # proj[n][m][s] -> base simplex id
    spaces: list                    # spaces[n][sigma_id] -> PathSpace


def simplicial_space(F, ncap, mcap):
    """Row m is the total space over the base nerve of the degree-m path
    space simplices, with the path-space face/degeneracy formulas as its
    horizontal operators; column n is the disjoint union of the path spaces
    over the n-simplices of the base, with their operators as its vertical
    ones."""
    NC = nerve(F.shape, ncap)
    cache = _ExpCache(F.cap)
    spaces = [[PathSpace(F, k, n, mcap, cache) for k in NC.keys[n]]
              for n in range(ncap + 1)]

    def space(n, k):
        return spaces[n][NC.id_of(n, k)]

    def row(m):
        # the kept coordinates keep their ids, as the path spaces share a
        # cache; the others restrict along a coface or codegeneracy
        def op(n, i, d, k):
            ps, vmap = space(n, k), coface_tuple if d < 0 else codegen_tuple
            return _coordinate_reads(n, i, d, lambda j: cache.restriction(
                ps.exps[j], vmap(j, i)).comp[m])

        return over_nerve(NC, ncap, lambda n, k: space(n, k).sset.keys[m],
                          op)

    rows, projs = zip(*[row(m) for m in range(mcap + 1)])
    # the fibre of a row over sigma lists its path space in id order
    columns = [disjoint_union([ps.sset for ps in spaces[n]])[0]
               for n in range(ncap + 1)]
    B = BiTruncSSet(list(rows), columns)
    proj = [[p.comp[n] for p in projs] for n in range(ncap + 1)]
    return SimplicialSpace(B, NC, proj, spaces)


def space_projection_ok(S):
    """The map to Delta[0] box N(D) commutes with all four operator families:
    each row projects simplicially onto N(D), and each column onto the
    discrete base simplices, as a vertical operator keeps the base simplex."""
    B, NC, P = S.bisset, S.base_nerve, S.proj
    maps = [SimplicialMap(row, NC, [P[n][m] for n in range(B.hcap + 1)])
            for m, row in enumerate(B.rows)] + [
        SimplicialMap(col, discrete(NC.counts[n], B.vcap), P[n])
        for n, col in enumerate(B.columns)]
    return not any(f.validate() for f in maps)


# -- the relative nerve (two constructions) ----------------------------------

def lurie_grothendieck(F, cap):
    """The zeroth-row construction: n-simplices are pairs (sigma, beta) with
    beta_i an i-simplex of the value at sigma(i), each beta_{i-1} transported
    onto the i-th face of beta_i."""
    C = F.shape
    F.require_cap(cap)
    NC = nerve(C, cap)

    # the values along each base simplex, listed once per simplex
    values = [{k: [F.values[o] for o in chain_objects(C, k, n)]
               for k in NC.keys[n]} for n in range(cap + 1)]

    def fiber(n, k):
        Xs = values[n][k]
        return _chain_join(Xs[0].simplices(0), (
            (Xs[i].by_faces(i, (i,)), F.maps[k[i - 1]].comp[i - 1])
            for i in range(1, n + 1)))

    def op(n, i, d, k):
        # beta_j for j > i is d_i beta_{j+1} or s_i beta_{j-1}
        Xs = values[n][k]
        return _coordinate_reads(n, i, d, lambda j: Xs[j].operator(j, i, d))

    total, proj = over_nerve(NC, cap, fiber, op)
    return RelNerveObject(total, proj, NC, F)


@functools.lru_cache(maxsize=None)
def subposet_plans(cap):
    """What the subposet-indexed construction reads below ``cap``, built
    once per cap (do not modify): ``subs[n]``, the nonempty subposets of
    [n] by (size, lex), the order of a family's entries; ``vertices[n][j]``,
    the position of {0..j}, the reads ``(position, J)`` of the other
    subposets J ending at j, and the checks ``(position of J, drop,
    position of I, last vertex of I, dim J)`` of every I = J less one
    vertex but {0..j-1}, which the extension of {0..j} meets; the reads of
    each d_i, and the plan ``(position, dim, vertex map, last vertex)`` of
    the image of each subposet under each s_i (see ``operator_tables``)."""
    subs = [[J for r in range(1, n + 2)
             for J in itertools.combinations(range(n + 1), r)]
            for n in range(cap + 1)]
    index = [{J: p for p, J in enumerate(ss)} for ss in subs]

    def vertex(n, j):
        front = tuple(range(j + 1))
        ends = [J for J in subs[n] if J[-1] == j]
        checks = [(index[n][J], drop, index[n][J[:drop] + J[drop + 1:]],
                   J[-2] if drop == len(J) - 1 else j, len(J) - 1)
                  for J in ends if len(J) > 1
                  for drop in range(len(J) - (J == front))]
        return (index[n][front], [(index[n][J], J) for J in ends
                                  if J != front], checks)

    def restriction(n, i, d):
        vmap = (coface_tuple if d < 0 else codegen_tuple)(n, i)
        images = [tuple(sorted(set(vmap[v] for v in J))) for J in subs[n + d]]
        if d < 0:
            # a coface maps each subposet isomorphically onto its image
            return [(index[n][image], None) for image in images]
        return [(index[n][image], len(image) - 1, tuple(
            image.index(vmap[v]) for v in J), image[-1])
            for J, image in zip(subs[n + d], images)]

    faces, degens = operator_tables(cap, restriction)
    return subs, [[vertex(n, j) for j in range(n + 1)]
                  for n in range(cap + 1)], faces, degens


def _along(comp, r, col):
    """``col``, of degree-r simplices, moved along the map with tables
    ``comp``, or ``col`` itself where ``comp`` is None, the identity."""
    return col if comp is None else list(map(comp[r].__getitem__, col))


def _rows(cols, keep):
    """The rows ``keep`` of each filled column."""
    return [None if col is None else list(map(col.__getitem__, keep))
            for col in cols]


def relative_nerve_direct(F, cap):
    """The subposet-indexed construction: an n-simplex is a base chain plus a
    compatible family of simplices, one for each nonempty subposet J of [n]
    in the value at its last vertex, each face of the simplex at J the one
    at J less that vertex, moved along the chain.

    A family is found vertex by vertex, at output cost: the simplex at
    {0..j} extends the one at {0..j-1}, moved along the chain, by its last
    face; the other subposets ending at j are read off it as faces; then
    every codimension-1 condition on them is checked a whole column at a
    time, those that functoriality implies included, and only when two
    columns differ are the failing rows found and dropped.  This is exact
    for every diagram that sends identities to identities.
    """
    C = F.shape
    F.require_cap(cap)
    NC = nerve(C, cap)
    subs, vertices, faces, degens = subposet_plans(cap)
    # the tables of F along each arrow, None where they are the identity
    tables = [None if all(t == list(range(len(t))) for t in f.comp)
              else f.comp for f in F.maps]
    chains, degen_reads = {}, {}

    def chain(n, objs):
        # per vertex j: the value, its simplices by their last face, and
        # the reads and checks with their tables, once per chain of objects
        if (n, objs) not in chains:
            chains[n, objs] = [
                (X, X.by_faces(j, (j,)) if j else None, front,
                 [(p, X.op_table(j, J)) for p, J in reads],
                 [(p, X.faces[r][drop], q, a, r - 1)
                  for p, drop, q, a, r in checks])
                for j, (X, (front, reads, checks)) in enumerate(zip(
                    [F.values[o] for o in objs], vertices[n]))]
        return chains[n, objs]

    def families(n, k):
        # along[a][j]: the tables of F along sigma(a, j), for a <= j
        along = [[None] * a + list(map(tables.__getitem__, row[a:]))
                 for a, row in enumerate(chain_arrows(C, k, n))]
        # cols[p] lists the entry at subs[n][p] of every partial family
        cols, last = [None] * len(subs[n]), None
        for j, (X, by_last, front, reads, checks) in enumerate(
                chain(n, chain_objects(C, k, n))):
            if not j:
                cols[front] = list(range(X.counts[0]))
            else:
                found = list(map(by_last.get, _along(
                    along[j - 1][j], j - 1, cols[last]), itertools.repeat(())))
                new = [y for ys in found for y in ys]
                if len(new) != len(found) or not all(found):
                    # some partial family has no or several extensions
                    cols = _rows(cols, [f for f, ys in enumerate(found)
                                        for _ in ys])
                cols[front] = new
            last = front
            for p, table in reads:
                cols[p] = list(map(table.__getitem__, cols[front]))
            bad = set()
            for p, face, q, a, r in checks:
                got = list(map(face.__getitem__, cols[p]))
                want = _along(along[a][j], r, cols[q])
                if got != want:
                    bad.update(f for f, (x, y) in enumerate(zip(got, want))
                               if x != y)
            if bad:
                cols = _rows(cols, [f for f in range(len(cols[front]))
                                    if f not in bad])
        return sorted(zip(*cols))

    def op(n, i, d, k):
        # d_i keeps the entry at the image of each subposet; s_i reads the
        # operator tables of the values along k, once per chain of objects
        if d < 0:
            return faces[n][i]
        objs = chain_objects(C, k, n)
        if (n, i, objs) not in degen_reads:
            degen_reads[n, i, objs] = [
                (p, F.values[objs[a]].op_table(r, u))
                for p, r, u, a in degens[n][i]]
        return degen_reads[n, i, objs]

    total, proj = over_nerve(NC, cap, families, op)
    return RelNerveObject(total, proj, NC, F)


def compare_relnerve_iso(F, cap):
    """The explicit mutually-inverse pair between the two constructions:
    forward restricts the chain of simplices along subposet inclusions,
    backward keeps the full-front-segment family."""
    L = lurie_grothendieck(F, cap)
    R = relative_nerve_direct(F, cap)
    C = F.shape
    subs, vertices = subposet_plans(cap)[:2]
    forward = {}

    def reads(n, k):
        # the simplex at J is the face J of beta at its last vertex, read
        # once per chain of objects
        objs = chain_objects(C, k, n)
        if (n, objs) not in forward:
            forward[n, objs] = [(J[-1], F.values[objs[J[-1]]].op_table(
                J[-1], J)) for J in subs[n]]
        return forward[n, objs]

    f = map_over_nerve(L.base_nerve, L.total, R.total, reads)
    # beta_i is the simplex at the front segment {0..i}
    fronts = [[(front, None) for front, _, _ in vs] for vs in vertices]
    g = map_over_nerve(R.base_nerve, R.total, L.total, lambda n, k: fronts[n])
    return f, g, L, R


def fiber_at(R, c):
    """The sub-simplicial set over the constant simplices at an object, with
    the mutually-inverse pair onto the diagram value."""
    X = R.diagram.values[c]
    return fiber_onto_value(
        R, c, X, lambda n, beta: beta[n],
        lambda n, x: tuple(X.op_table(n, tuple(range(i + 1)))[x]
                           for i in range(n + 1)))


def row_identification(S, F, t, ncap):
    """Rem-style identification of the vertical-degree-t row of the
    simplicial space with the relative nerve of the cotensor diagram.

    Returns the mutually-inverse pair between ``S.bisset.rows[t]`` and
    ``lurie_grothendieck(F^{Delta[t]}, ncap).total``: the j-th coordinate,
    a degree-t simplex of ``[Delta[j] => Y]``, is transposed to a degree-j
    simplex of ``[Delta[t] => Y]`` and back.
    """
    # the cotensor diagram d -> [Delta[t] => F(d)], by postcomposition
    cache = _ExpCache(F.cap)
    values = [cache.exp(F.values[o], t, ncap)
              for o in range(F.shape.n_objects)]
    G = SSetDiagram(F.shape, values, [
        values[F.shape.src[m]].postcompose(F.maps[m], values[F.shape.tgt[m]])
        for m in range(F.shape.n_morphisms)])
    target = lurie_grothendieck(G, ncap)
    row = S.bisset.rows[t]

    def reads(n, k, forward):
        ps = S.spaces[n][S.base_nerve.id_of(n, k)]
        return [(j, cache.transposed(E, t, V) if forward
                 else cache.transposed(V, j, E))
                for j, (E, V) in enumerate(zip(
                    ps.exps, [G.values[o] for o in ps.objects]))]

    f = map_over_nerve(S.base_nerve, row, target.total,
                       lambda n, k: reads(n, k, True))
    g = map_over_nerve(S.base_nerve, target.total, row,
                       lambda n, k: reads(n, k, False))
    return f, g, target
