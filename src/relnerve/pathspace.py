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

import itertools
from dataclasses import dataclass

from .bisset import BiTruncSSet
from .fincat import (RelNerveObject, SSetDiagram, chain_arrow,
                     chain_object_of_key, fiber_onto_value, nerve,
                     over_nerve)
from .sset import (Exponential, KeyedSSet, SimplicialMap, SSetError,
                   TruncationError, codegen_tuple, coface_tuple, keyed_tables,
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
        self.mcap = mcap
        C = F.shape
        self.objects = [chain_object_of_key(C, sigma_key, n, i)
                        for i in range(n + 1)]
        for o in self.objects:
            if F.values[o].cap < mcap + n:
                raise TruncationError(
                    "path space needs values of dimension >= %d, have %d"
                    % (mcap + n, F.values[o].cap))
        self.cache = cache or _ExpCache(F.cap)
        self.exps = [self.cache.exp(F.values[o], i, mcap)
                     for i, o in enumerate(self.objects)]
        self.arrows = [chain_arrow(C, sigma_key, n, i - 1, i)
                       for i in range(1, n + 1)]
        keys = [self._tuples(m) for m in range(mcap + 1)]
        self.sset = KeyedSSet(mcap, *keyed_tables(
            mcap, keys,
            lambda m, j, k: tuple(self.exps[i].faces[m][j][k[i]]
                                  for i in range(n + 1)),
            lambda m, j, k: tuple(self.exps[i].degens[m][j][k[i]]
                                  for i in range(n + 1))))

    def _tuples(self, m):
        exps, cache = self.exps, self.cache
        tuples = [(e,) for e in exps[0].simplices(m)]
        for i in range(1, self.n + 1):
            # the i-th coordinates by the id of their restriction along d^i,
            # met by the previous coordinate pushed along the diagram map
            by_restriction = {}
            for e, r in enumerate(cache.restriction(
                    exps[i], coface_tuple(i, i)).comp[m]):
                by_restriction.setdefault(r, []).append(e)
            pushed = cache.postcomposition(
                exps[i - 1], i - 1, self.F.maps[self.arrows[i - 1]]).comp[m]
            tuples = [tup + (e,) for tup in tuples
                      for e in by_restriction.get(pushed[tup[-1]], ())]
        return tuples


def path_structure_map(F, sigma_key, n, i, kind, mcap):
    """Face (kind='face') or degeneracy (kind='degeneracy') operator of the
    path-space tower at index i, as a SimplicialMap."""
    cache = _ExpCache(F.cap)
    src = PathSpace(F, sigma_key, n, mcap, cache)
    NC = nerve(F.shape, n + 1)
    shift = -1 if kind == "face" else 1 if kind == "degeneracy" else None
    if shift is None:
        raise SSetError("unknown operator kind %r" % (kind,))
    if not 0 <= i <= n or n + shift < 0:
        raise SSetError("%s index out of range" % kind)
    ops = NC.faces[n] if shift < 0 else NC.degens[n]
    tgt = PathSpace(F, NC.key_of(n + shift, ops[i][NC.id_of(n, sigma_key)]),
                    n + shift, mcap, cache)
    comp = []
    for m in range(mcap + 1):
        transport = _transport(src, tgt, m, i, kind)
        comp.append([tgt.sset.id_of(m, transport(tup))
                     for tup in src.sset.keys[m]])
    return SimplicialMap(src.sset, tgt.sset, comp), src, tgt


def _transport(src, tgt, m, i, kind):
    """The i-th face/degeneracy on the degree-m tuples of ``src``: the
    coordinates before i are kept, with their ids, as ``src`` and ``tgt``
    share their cache; the others are restricted from the neighbouring
    coordinate along a coface/codegeneracy."""
    face = kind == "face"
    reads = []
    for j in range(src.n if face else src.n + 2):
        if j < i or (j == i and not face):
            reads.append((j, None))
        else:
            k = j + 1 if face else j - 1
            vmap = coface_tuple(k, i) if face else codegen_tuple(k, i)
            reads.append((k, src.cache.restriction(src.exps[k],
                                                   vmap).comp[m]))
    return lambda tup: tuple([tup[k] if ids is None else ids[tup[k]]
                              for k, ids in reads])


def path_space_zigzag(F, sigma_key, n, mcap):
    """Independent oracle: degreewise limit of the mapping-object zig-zag.

    Counts, for each internal degree m, the tuples (b_0, ..., b_n) with b_i
    in the mapping object [Delta[i] => F(sigma(i))] satisfying the pullback
    equations, by filtering the full product rather than by the incremental
    fiber search used by ``PathSpace``.
    """
    cache = _ExpCache(F.cap)
    C = F.shape
    objects = [chain_object_of_key(C, sigma_key, n, i) for i in range(n + 1)]
    exps = [cache.exp(F.values[o], i, mcap) for i, o in enumerate(objects)]
    # b_{i-1} pushed along the diagram map meets b_i restricted along d^i
    links = [(cache.postcomposition(exps[i - 1], i - 1, F.maps[
        chain_arrow(C, sigma_key, n, i - 1, i)]).comp,
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
    bisset: BiTruncSSet
    base_nerve: object
    proj: list                      # proj[n][m][s] -> base simplex id
    spaces: list                    # spaces[n][sigma_id] -> PathSpace
    rows: list                      # rows[m]: KeyedSSet of (sigma_id, tuple)


def simplicial_space(F, ncap, mcap):
    """Row m is the total space over the base nerve of the degree-m path
    space simplices, with the path-space face/degeneracy formulas as its
    horizontal operators; the vertical operators are those of each path
    space."""
    NC = nerve(F.shape, ncap)
    cache = _ExpCache(F.cap)
    spaces = [[PathSpace(F, k, n, mcap, cache) for k in NC.keys[n]]
              for n in range(ncap + 1)]

    def space(n, k):
        return spaces[n][NC.id_of(n, k)]

    def row(m):
        def transport(kind, shift):
            def rule(n, i, k, nk):
                transport = _transport(space(n, k), space(n + shift, nk), m,
                                       i, kind)
                return lambda tups: list(map(transport, tups))
            return rule

        return over_nerve(NC, ncap, lambda n, k: space(n, k).sset.keys[m],
                          transport("face", -1), transport("degeneracy", 1))

    rows, projs = zip(*[row(m) for m in range(mcap + 1)])

    def vertical(n, m, j, to, ops):
        # the fibre of a row over sigma lists its path space in id order
        out, offset = [], 0
        for ps in spaces[n]:
            out += map(offset.__add__, ops(ps.sset)[m][j])
            offset += ps.sset.counts[to]
        return out

    ms = range(mcap + 1)
    counts = [[rows[m].counts[n] for m in ms] for n in range(ncap + 1)]
    hfaces = [None] + [[rows[m].faces[n] for m in ms]
                       for n in range(1, ncap + 1)]
    hdegens = [[rows[m].degens[n] for m in ms] for n in range(ncap)]
    vfaces = [[None] + [[vertical(n, m, j, m - 1, lambda X: X.faces)
                         for j in range(m + 1)] for m in range(1, mcap + 1)]
              for n in range(ncap + 1)]
    vdegens = [[[vertical(n, m, j, m + 1, lambda X: X.degens)
                 for j in range(m + 1)] for m in range(mcap)]
               for n in range(ncap + 1)]
    B = BiTruncSSet(ncap, mcap, counts, hfaces, hdegens, vfaces, vdegens)
    proj = [[projs[m].comp[n] for m in ms] for n in range(ncap + 1)]
    return SimplicialSpace(B, NC, proj, spaces, list(rows))


def space_projection_ok(S):
    """The map to Delta[0] box N(D) commutes with all four operator families."""
    B, NC, P = S.bisset, S.base_nerve, S.proj
    for n in range(B.hcap + 1):
        for m in range(B.vcap + 1):
            for s in range(B.counts[n][m]):
                base = P[n][m][s]
                for i in range(n + 1):
                    if n > 0 and P[n - 1][m][B.hface(n, m, i, s)] != \
                            NC.faces[n][i][base]:
                        return False
                    if n < B.hcap and P[n + 1][m][B.hdegen(n, m, i, s)] != \
                            NC.degens[n][i][base]:
                        return False
                for j in range(m + 1):
                    if m > 0 and P[n][m - 1][B.vface(n, m, j, s)] != base:
                        return False
                    if m < B.vcap and P[n][m + 1][B.vdegen(n, m, j, s)] != \
                            base:
                        return False
    return True


# -- the relative nerve (two constructions) ----------------------------------

def _columnwise(columns_map):
    """The map on lists of equal-length tuples that applies
    ``columns_map`` to their columns and returns the rows of the columns it
    gives."""
    return lambda rows: list(zip(*columns_map(list(zip(*rows))))) \
        if rows else []


def lurie_grothendieck(F, cap):
    """The zeroth-row construction: n-simplices are pairs (sigma, beta) with
    beta_i an i-simplex of the value at sigma(i), each beta_{i-1} transported
    onto the i-th face of beta_i."""
    C = F.shape
    F.require_cap(cap)
    NC = nerve(C, cap)

    # the values along each base simplex, listed once per simplex
    values = [{k: [F.values[chain_object_of_key(C, k, n, j)]
                   for j in range(n + 1)] for k in NC.keys[n]}
              for n in range(cap + 1)]

    def fiber(n, k):
        Xs = values[n][k]
        tuples = [(b,) for b in Xs[0].simplices(0)]
        for i in range(1, n + 1):
            fmap = F.maps[k[i - 1]]
            by_face = Xs[i].face_index(i)[i]
            tuples = [t + (y,)
                      for t in tuples
                      for y in by_face.get(fmap.comp[i - 1][t[-1]], ())]
        return tuples

    def face(n, i, k, nk):
        # beta_j for j >= i is d_i of beta_{j+1}
        Xs = values[n][k]
        rows = [Xs[j + 1].faces[j + 1][i] for j in range(i, n)]
        return _columnwise(lambda cols: cols[:i] + [
            map(row.__getitem__, col) for row, col in zip(rows, cols[i + 1:])])

    def degen(n, i, k, nk):
        # beta_j for j > i is s_i of beta_{j-1}
        Xs = values[n][k]
        rows = [Xs[j].degens[j][i] for j in range(i, n + 1)]
        return _columnwise(lambda cols: cols[:i + 1] + [
            map(row.__getitem__, col) for row, col in zip(rows, cols[i:])])

    total, proj = over_nerve(NC, cap, fiber, face, degen)
    return RelNerveObject(total, proj, NC, F)


def _subsets(n):
    """Nonempty subsets of {0..n} as sorted tuples, ordered by (size, lex)."""
    out = []
    for r in range(1, n + 2):
        out.extend(itertools.combinations(range(n + 1), r))
    return out


def relative_nerve_direct(F, cap):
    """The subposet-indexed construction: an n-simplex is a base chain plus a
    compatible family of simplices, one for each nonempty subposet of [n]."""
    C = F.shape
    F.require_cap(cap)
    NC = nerve(C, cap)
    subs = [_subsets(n) for n in range(cap + 1)]
    sub_index = [{J: p for p, J in enumerate(ss)} for ss in subs]
    # families grow by (last vertex, size, lex), so the simplex at each
    # subposet comes after all of its faces, and are then laid out by
    # (size, lex), the order of ``subs``
    grow = [sorted(ss, key=lambda J: (J[-1], len(J), J)) for ss in subs]
    grow_index = [{J: p for p, J in enumerate(gs)} for gs in grow]
    layout = [[grow_index[n][J] for J in subs[n]] for n in range(cap + 1)]

    def families(n, k):
        # column q lists the simplex at grow[n][q] of every partial family
        objs = [chain_object_of_key(C, k, n, i) for i in range(n + 1)]
        cols, size = [], 1
        for J in grow[n]:
            j = J[-1]
            Xj = F.values[objs[j]]
            r = len(J) - 1
            if not r:
                # a new vertex: every partial family times every vertex
                m = Xj.counts[0]
                cols = [[v for v in col for _ in range(m)] for col in cols]
                cols.append(list(range(m)) * size)
                size *= m
                continue
            # d_drop of the simplex at J sits at J minus its drop-th entry
            cofaces = [J[:drop] + J[drop + 1:] for drop in range(r + 1)]
            profiles = zip(*[
                map(F.maps[chain_arrow(C, k, n, I[-1], j)]
                    .comp[len(I) - 1].__getitem__, cols[grow_index[n][I]])
                for I in cofaces])
            found = list(map(Xj.by_faces(r).get, profiles,
                             itertools.repeat(())))
            new = [y for ys in found for y in ys]
            if len(new) != size or not all(found):
                # some partial family has no or several extensions
                keep = [f for f, ys in enumerate(found) for _ in ys]
                cols = [list(map(col.__getitem__, keep)) for col in cols]
                size = len(keep)
            cols.append(new)
        return sorted(zip(*[cols[q] for q in layout[n]]))

    def restriction(n_from, n_to, vmap):
        """Per subposet J of [n_to]: its last vertex, the position of its
        image under ``vmap`` among the subposets of [n_from], and the
        vertex map from J onto that image."""
        plan = []
        for J in subs[n_to]:
            image = tuple(sorted(set(vmap[v] for v in J)))
            plan.append((J[-1], sub_index[n_from][image], len(image) - 1,
                         tuple(image.index(vmap[v]) for v in J)))
        return plan

    # a coface maps each subposet isomorphically onto its image, so d_i
    # keeps the simplex at the image of each subposet
    face_at = [None] + [[[p for _, p, _, _ in restriction(
        n, n - 1, coface_tuple(n, i))] for i in range(n + 1)]
        for n in range(1, cap + 1)]
    degen_plans = [[restriction(n, n + 1, codegen_tuple(n, i))
                    for i in range(n + 1)] for n in range(cap)]

    def face(n, i, k, new_k):
        return _columnwise(lambda cols: [cols[p] for p in face_at[n][i]])

    def degen(n, i, k, new_k):
        # the operator tables of the values along new_k, read once
        reads = [(F.values[chain_object_of_key(C, new_k, n + 1, j)]
                  .op_table(r, u), p) for j, p, r, u in degen_plans[n][i]]
        return _columnwise(lambda cols: [map(table.__getitem__, cols[p])
                                         for table, p in reads])

    total, proj = over_nerve(NC, cap, families, face, degen)
    return RelNerveObject(total, proj, NC, F)


def compare_relnerve_iso(F, cap):
    """The explicit mutually-inverse pair between the two constructions:
    forward restricts the chain of simplices along subposet inclusions,
    backward keeps the full-front-segment family."""
    L = lurie_grothendieck(F, cap)
    R = relative_nerve_direct(F, cap)
    C = F.shape
    NC = L.base_nerve
    subs = [_subsets(n) for n in range(cap + 1)]
    fwd = []
    for n in range(cap + 1):
        row, reads = [], {}
        for sid, beta in L.total.keys[n]:
            if sid not in reads:
                # the simplex at J is the face J of beta at its last vertex
                k = NC.keys[n][sid]
                reads[sid] = [(F.values[chain_object_of_key(C, k, n, J[-1])]
                               .op_table(J[-1], J), J[-1]) for J in subs[n]]
            fam = tuple([table[beta[j]] for table, j in reads[sid]])
            row.append(R.total.id_of(n, (sid, fam)))
        fwd.append(row)
    bwd = []
    for n in range(cap + 1):
        fronts = [subs[n].index(tuple(range(i + 1))) for i in range(n + 1)]
        bwd.append([L.total.id_of(n, (sid, tuple(map(fam.__getitem__,
                                                     fronts))))
                    for sid, fam in R.total.keys[n]])
    f = SimplicialMap(L.total, R.total, fwd)
    g = SimplicialMap(R.total, L.total, bwd)
    return f, g, L, R


def fiber_at(R, c):
    """The sub-simplicial set over the constant simplices at an object, with
    the mutually-inverse pair onto the diagram value."""
    X = R.diagram.values[c]
    return fiber_onto_value(
        R, c, X, lambda n, beta: beta[n],
        lambda n, x: tuple(X.op_table(n, tuple(range(i + 1)))[x]
                           for i in range(n + 1)))


def row_cotensor_diagram(F, t, cap_out):
    """The diagram d -> [Delta[t] => F(d)], with postcomposition action."""
    cache = _ExpCache(F.cap)
    values = [cache.exp(F.values[o], t, cap_out)
              for o in range(F.shape.n_objects)]
    maps = [values[F.shape.src[m]].postcompose(F.maps[m],
                                               values[F.shape.tgt[m]])
            for m in range(F.shape.n_morphisms)]
    return SSetDiagram(F.shape, values, maps), cache


def row_identification(S, F, t, ncap):
    """Rem-style identification of the vertical-degree-t row of the
    simplicial space with the relative nerve of the cotensor diagram.

    Returns the mutually-inverse pair between ``S.bisset.row(t)`` and
    ``lurie_grothendieck(F^{Delta[t]}, ncap).total``: the j-th coordinate,
    a degree-t simplex of ``[Delta[j] => Y]``, is transposed to a degree-j
    simplex of ``[Delta[t] => Y]`` and back.
    """
    G, cache = row_cotensor_diagram(F, t, ncap)
    target = lurie_grothendieck(G, ncap)
    row, keyed = S.bisset.row(t), S.rows[t]

    def transpose(n, sid, coords, forward):
        ps = S.spaces[n][sid]
        return tuple([
            (cache.transposed(E, t, V) if forward
             else cache.transposed(V, j, E))[c]
            for j, (E, V, c) in enumerate(zip(
                ps.exps, [G.values[o] for o in ps.objects], coords))])

    fwd = [[target.total.id_of(n, (sid, transpose(n, sid, tup, True)))
            for sid, tup in keyed.keys[n]] for n in range(ncap + 1)]
    bwd = [[keyed.id_of(n, (sid, transpose(n, sid, gamma, False)))
            for sid, gamma in target.total.keys[n]] for n in range(ncap + 1)]
    f = SimplicialMap(row, target.total, fwd)
    g = SimplicialMap(target.total, row, bwd)
    return f, g, target
