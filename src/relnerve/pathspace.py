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
from .fincat import (chain_arrow, chain_object_of_key, constant_chain, nerve,
                     nerve_degen_key, nerve_face_key)
from .sset import (Exponential, KeyedSSet, SimplicialMap, SSetError,
                   TruncationError, TruncSSet, codegen_tuple, coface_tuple,
                   delta_map, identity_map, precompose_table, product,
                   product_map, standard_simplex, sub_sset)


# -- shared caches within one construction ----------------------------------

class _ExpCache:
    """Memoizes mapping objects and coface/codegeneracy restriction maps."""

    def __init__(self, cap):
        self.cap = cap
        self.deltas = {}
        self.exps = {}
        self.restrictions = {}

    def delta(self, n):
        if n not in self.deltas:
            self.deltas[n] = standard_simplex(n, self.cap)
        return self.deltas[n]

    def exp(self, Y, i, mcap):
        key = (id(Y), i, mcap)
        if key not in self.exps:
            self.exps[key] = Exponential(Y, self.delta(i), mcap)
        return self.exps[key]

    def restriction_to(self, m, j_from, j_to, vmap):
        key = (m, j_from, j_to, vmap)
        if key not in self.restrictions:
            u = delta_map(self.delta(j_from), self.delta(j_to), vmap)
            P_from = product(self.delta(m), self.delta(j_from))[0]
            P_to = product(self.delta(m), self.delta(j_to))[0]
            self.restrictions[key] = product_map(
                identity_map(self.delta(m)), u, P_from, P_to)
        return self.restrictions[key]


def _table_postcompose(table, fmap):
    return tuple(tuple(fmap.comp[d][v] for v in row)
                 for d, row in enumerate(table))


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
        self.sset = KeyedSSet(
            mcap, keys,
            lambda m, j, k: tuple(self.exps[i].faces[m][j][k[i]]
                                  for i in range(n + 1)),
            lambda m, j, k: tuple(self.exps[i].degens[m][j][k[i]]
                                  for i in range(n + 1)))

    def _tuples(self, m):
        n, F = self.n, self.F
        partial = [[(e,) for e in self.exps[0].simplices(m)]]
        for i in range(1, n + 1):
            fmap = F.maps[self.arrows[i - 1]]
            rmap = self.cache.restriction_to(m, i - 1, i,
                                             coface_tuple(i, i))
            prev = partial[-1]
            # index candidates by their restricted table
            by_restriction = {}
            for e in self.exps[i].simplices(m):
                rt = precompose_table(self.exps[i].table(m, e), rmap)
                by_restriction.setdefault(rt, []).append(e)
            out = []
            for tup in prev:
                pushed = _table_postcompose(
                    self.exps[i - 1].table(m, tup[-1]), fmap)
                for e in by_restriction.get(pushed, ()):
                    out.append(tup + (e,))
            partial.append(out)
        return partial[-1]


def path_space(F, sigma_key, n, mcap, cache=None):
    """The spec-level operation; returns the internal TruncSSet."""
    return PathSpace(F, sigma_key, n, mcap, cache=cache)


def path_structure_map(F, sigma_key, n, i, kind, mcap, cache=None):
    """Face (kind='face') or degeneracy (kind='degeneracy') operator of the
    path-space tower at index i, as a SimplicialMap."""
    cache = cache or _ExpCache(F.cap)
    src = PathSpace(F, sigma_key, n, mcap, cache)
    if kind == "face":
        if not 0 <= i <= n or n == 0:
            raise SSetError("face index out of range")
        tgt_key = nerve_face_key(F.shape, sigma_key, n, i)
        tgt = PathSpace(F, tgt_key, n - 1, mcap, cache)
    elif kind == "degeneracy":
        if not 0 <= i <= n:
            raise SSetError("degeneracy index out of range")
        tgt_key = nerve_degen_key(F.shape, sigma_key, n, i)
        tgt = PathSpace(F, tgt_key, n + 1, mcap, cache)
    else:
        raise SSetError("unknown operator kind %r" % (kind,))
    comp = []
    for m in range(mcap + 1):
        row = []
        for s in src.sset.simplices(m):
            tup = src.sset.key_of(m, s)
            new = _transport_tuple(src, tgt, tup, m, i, kind)
            row.append(tgt.sset.id_of(m, new))
        comp.append(row)
    return SimplicialMap(src.sset, tgt.sset, comp), src, tgt


def _transport_tuple(src, tgt, tup, m, i, kind):
    """Coordinates of the image tuple under the i-th face/degeneracy."""
    n = src.n
    if kind == "face":
        new = []
        for j in range(n):
            if j < i:
                new.append(tgt.exps[j].id_of(m, src.exps[j].table(m, tup[j])))
            else:
                rmap = src.cache.restriction_to(m, j, j + 1,
                                                coface_tuple(j + 1, i))
                table = precompose_table(
                    src.exps[j + 1].table(m, tup[j + 1]), rmap)
                new.append(tgt.exps[j].id_of(m, table))
        return tuple(new)
    new = []
    for j in range(n + 2):
        if j <= i:
            new.append(tgt.exps[j].id_of(m, src.exps[j].table(m, tup[j])))
        else:
            rmap = src.cache.restriction_to(m, j, j - 1,
                                            codegen_tuple(j - 1, i))
            table = precompose_table(
                src.exps[j - 1].table(m, tup[j - 1]), rmap)
            new.append(tgt.exps[j].id_of(m, table))
    return tuple(new)


def path_space_zigzag(F, sigma_key, n, mcap, cache=None):
    """Independent oracle: the degreewise limit of the exponential zig-zag.

    Computes, for each internal degree m, the set of tuples
    (b_0, ..., b_n) with b_i in the mapping object [Delta[i] => F(sigma(i))]
    satisfying the pullback equations, by filtering the full product rather
    than by the incremental fiber search used by ``PathSpace``.
    """
    cache = cache or _ExpCache(F.cap)
    C = F.shape
    objects = [chain_object_of_key(C, sigma_key, n, i) for i in range(n + 1)]
    exps = [cache.exp(F.values[o], i, mcap) for i, o in enumerate(objects)]
    arrows = [chain_arrow(C, sigma_key, n, i - 1, i) for i in range(1, n + 1)]
    counts = []
    for m in range(mcap + 1):
        hits = 0
        for tup in itertools.product(*[range(e.counts[m]) for e in exps]):
            ok = True
            for i in range(1, n + 1):
                fmap = F.maps[arrows[i - 1]]
                rmap = cache.restriction_to(m, i - 1, i, coface_tuple(i, i))
                lhs = _table_postcompose(exps[i - 1].table(m, tup[i - 1]),
                                         fmap)
                rhs = precompose_table(exps[i].table(m, tup[i]), rmap)
                if lhs != rhs:
                    ok = False
                    break
            if ok:
                hits += 1
        counts.append(hits)
    return counts


# -- the simplicial space and its zeroth row ---------------------------------

@dataclass
class SimplicialSpace:
    bisset: BiTruncSSet
    base_nerve: object
    proj: list                      # proj[n][m][s] -> base simplex id
    spaces: list                    # spaces[n][sigma_id] -> PathSpace


def simplicial_space(F, ncap, mcap):
    """Columns are disjoint unions of path spaces over the base simplices;
    horizontal operators act by the path-space face/degeneracy formulas."""
    C = F.shape
    NC = nerve(C, max(ncap, 1))
    cache = _ExpCache(F.cap)
    spaces = []
    for n in range(ncap + 1):
        spaces.append([PathSpace(F, NC.key_of(n, s), n, mcap, cache)
                       for s in NC.simplices(n)])
    counts = [[sum(ps.sset.counts[m] for ps in spaces[n])
               for m in range(mcap + 1)] for n in range(ncap + 1)]
    offsets = []
    where = []
    for n in range(ncap + 1):
        offs = []
        run = [0] * (mcap + 1)
        for ps in spaces[n]:
            offs.append(list(run))
            for m in range(mcap + 1):
                run[m] += ps.sset.counts[m]
        offsets.append(offs)
        where.append([[(sid, loc)
                       for sid, ps in enumerate(spaces[n])
                       for loc in range(ps.sset.counts[m])]
                      for m in range(mcap + 1)])

    def locate(n, m, s):
        return where[n][m][s]

    proj = [[[where[n][m][s][0] for s in range(counts[n][m])]
             for m in range(mcap + 1)] for n in range(ncap + 1)]

    def hop(n, m, i, s, kind):
        sid, loc = locate(n, m, s)
        src = spaces[n][sid]
        tup = src.sset.key_of(m, loc)
        if kind == "face":
            tid = NC.id_of(n - 1,
                           nerve_face_key(C, NC.key_of(n, sid), n, i))
            tgt = spaces[n - 1][tid]
        else:
            tid = NC.id_of(n + 1,
                           nerve_degen_key(C, NC.key_of(n, sid), n, i))
            tgt = spaces[n + 1][tid]
        new = _transport_tuple(src, tgt, tup, m, i, kind)
        nn = n - 1 if kind == "face" else n + 1
        return offsets[nn][tid][m] + tgt.sset.id_of(m, new)

    hfaces = [None] + [
        [[[hop(n, m, i, s, "face") for s in range(counts[n][m])]
          for i in range(n + 1)] for m in range(mcap + 1)]
        for n in range(1, ncap + 1)]
    hdegens = [
        [[[hop(n, m, i, s, "degeneracy") for s in range(counts[n][m])]
          for i in range(n + 1)] for m in range(mcap + 1)]
        for n in range(ncap)]
    vfaces = []
    vdegens = []
    for n in range(ncap + 1):
        vf = [None]
        for m in range(1, mcap + 1):
            vf.append([[offsets[n][locate(n, m, s)[0]][m - 1]
                        + spaces[n][locate(n, m, s)[0]].sset.faces[m][j][
                            locate(n, m, s)[1]]
                        for s in range(counts[n][m])] for j in range(m + 1)])
        vfaces.append(vf)
        vd = []
        for m in range(mcap):
            vd.append([[offsets[n][locate(n, m, s)[0]][m + 1]
                        + spaces[n][locate(n, m, s)[0]].sset.degens[m][j][
                            locate(n, m, s)[1]]
                        for s in range(counts[n][m])] for j in range(m + 1)])
        vdegens.append(vd)
    B = BiTruncSSet(ncap, mcap, counts, hfaces, hdegens, vfaces, vdegens)
    return SimplicialSpace(B, NC, proj, spaces)


def space_projection_ok(S):
    """The map to Delta[0] box N(D) commutes with all four operator families."""
    B, NC = S.bisset, S.base_nerve
    for n in range(1, B.hcap + 1):
        for m in range(B.vcap + 1):
            for i in range(n + 1):
                for s in range(B.counts[n][m]):
                    if S.proj[n - 1][m][B.hface(n, m, i, s)] != \
                            NC.faces[n][i][S.proj[n][m][s]]:
                        return False
    for n in range(B.hcap):
        for m in range(B.vcap + 1):
            for i in range(n + 1):
                for s in range(B.counts[n][m]):
                    if S.proj[n + 1][m][B.hdegen(n, m, i, s)] != \
                            NC.degens[n][i][S.proj[n][m][s]]:
                        return False
    for n in range(B.hcap + 1):
        for m in range(1, B.vcap + 1):
            for j in range(m + 1):
                for s in range(B.counts[n][m]):
                    if S.proj[n][m - 1][B.vface(n, m, j, s)] != \
                            S.proj[n][m][s]:
                        return False
    for n in range(B.hcap + 1):
        for m in range(B.vcap):
            for j in range(m + 1):
                for s in range(B.counts[n][m]):
                    if S.proj[n][m + 1][B.vdegen(n, m, j, s)] != \
                            S.proj[n][m][s]:
                        return False
    return True


# -- the relative nerve (two constructions) ----------------------------------

@dataclass
class RelNerveObject:
    total: TruncSSet
    proj: SimplicialMap
    base_nerve: object
    diagram: object


def lurie_grothendieck(F, cap):
    """The zeroth-row construction: n-simplices are pairs (sigma, beta) with
    beta_i an i-simplex of the value at sigma(i), each beta_{i-1} transported
    onto the i-th face of beta_i."""
    C = F.shape
    if F.cap < cap:
        raise TruncationError("diagram values are too shallow for cap=%d"
                              % cap)
    NC = nerve(C, cap)
    keys = []
    for n in range(cap + 1):
        layer = []
        for sid in NC.simplices(n):
            k = NC.key_of(n, sid)
            objs = [chain_object_of_key(C, k, n, i) for i in range(n + 1)]
            tuples = [(b,) for b in F.values[objs[0]].simplices(0)]
            for i in range(1, n + 1):
                arrow = k[i - 1]
                fmap = F.maps[arrow]
                Xi = F.values[objs[i]]
                by_face = {}
                for y in Xi.simplices(i):
                    by_face.setdefault(Xi.faces[i][i][y], []).append(y)
                tuples = [t + (y,)
                          for t in tuples
                          for y in by_face.get(fmap.comp[i - 1][t[-1]], ())]
            layer.extend((sid, t) for t in tuples)
        keys.append(layer)

    def face_key(n, i, key):
        sid, t = key
        k = NC.key_of(n, sid)
        new_sid = NC.id_of(n - 1, nerve_face_key(C, k, n, i))
        objs = [chain_object_of_key(C, k, n, j) for j in range(n + 1)]
        new = tuple(t[j] if j < i
                    else F.values[objs[j + 1]].faces[j + 1][i][t[j + 1]]
                    for j in range(n))
        return (new_sid, new)

    def deg_key(n, i, key):
        sid, t = key
        k = NC.key_of(n, sid)
        new_sid = NC.id_of(n + 1, nerve_degen_key(C, k, n, i))
        objs = [chain_object_of_key(C, k, n, j) for j in range(n + 1)]
        new = tuple(t[j] if j <= i
                    else F.values[objs[j - 1]].degens[j - 1][i][t[j - 1]]
                    for j in range(n + 2))
        return (new_sid, new)

    total = KeyedSSet(cap, keys, face_key, deg_key)
    proj = SimplicialMap(total, NC,
                         [[total.key_of(n, s)[0] for s in total.simplices(n)]
                          for n in range(cap + 1)])
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
    if F.cap < cap:
        raise TruncationError("diagram values are too shallow for cap=%d"
                              % cap)
    NC = nerve(C, cap)
    subs = [_subsets(n) for n in range(cap + 1)]
    sub_index = [{J: p for p, J in enumerate(ss)} for ss in subs]

    def enumerate_tau(n, sid):
        k = NC.key_of(n, sid)
        objs = [chain_object_of_key(C, k, n, i) for i in range(n + 1)]
        families = [()]
        for J in subs[n]:
            j = J[-1]
            Xj = F.values[objs[j]]
            r = len(J) - 1
            cofaces = [J[:drop] + J[drop + 1:] for drop in range(len(J))
                       if len(J) > 1]
            by_profile = {}
            for y in Xj.simplices(r):
                prof = tuple(
                    Xj.apply_vertex_map(r, y, tuple(J.index(v) for v in I))
                    for I in cofaces)
                by_profile.setdefault(prof, []).append(y)
            transports = [
                (sub_index[n][I],
                 F.maps[chain_arrow(C, k, n, I[-1], j)].comp[len(I) - 1])
                for I in cofaces]
            grown = []
            for fam in families:
                want = tuple(t[fam[p]] for (p, t) in transports)
                for y in by_profile.get(want, ()):
                    grown.append(fam + (y,))
            families = grown
        return [(sid, fam) for fam in families]

    keys = [[kk for sid in NC.simplices(n)
             for kk in enumerate_tau(n, sid)] for n in range(cap + 1)]

    def act(n_from, n_to, vmap, key):
        sid, fam = key
        k = NC.key_of(n_from, sid)
        if n_to == n_from - 1:
            i = next(v for v in range(n_from + 1) if v not in vmap)
            new_sid = NC.id_of(n_to, nerve_face_key(C, k, n_from, i))
        else:
            i = next(v for v in range(n_from + 1)
                     if vmap.count(v) == 2)
            new_sid = NC.id_of(n_to, nerve_degen_key(C, k, n_from, i))
        new_k = NC.key_of(n_to, new_sid)
        objs_to = [chain_object_of_key(C, new_k, n_to, v)
                   for v in range(n_to + 1)]
        new_fam = []
        for J in subs[n_to]:
            image = tuple(sorted(set(vmap[v] for v in J)))
            tau = fam[sub_index[n_from][image]]
            Xj = F.values[objs_to[J[-1]]]
            positions = tuple(image.index(vmap[v]) for v in J)
            new_fam.append(Xj.apply_vertex_map(len(image) - 1, tau,
                                               positions))
        return (new_sid, tuple(new_fam))

    total = KeyedSSet(
        cap, keys,
        lambda n, i, key: act(n, n - 1, coface_tuple(n, i), key),
        lambda n, i, key: act(n, n + 1, codegen_tuple(n, i), key))
    proj = SimplicialMap(total, NC,
                         [[total.key_of(n, s)[0] for s in total.simplices(n)]
                          for n in range(cap + 1)])
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
        row = []
        for s in L.total.simplices(n):
            sid, beta = L.total.key_of(n, s)
            k = NC.key_of(n, sid)
            objs = [chain_object_of_key(C, k, n, i) for i in range(n + 1)]
            fam = []
            for J in subs[n]:
                j = J[-1]
                fam.append(F.values[objs[j]].apply_vertex_map(j, beta[j], J))
            row.append(R.total.id_of(n, (sid, tuple(fam))))
        fwd.append(row)
    bwd = []
    for n in range(cap + 1):
        row = []
        sub_index = {J: p for p, J in enumerate(subs[n])}
        for s in R.total.simplices(n):
            sid, fam = R.total.key_of(n, s)
            beta = tuple(fam[sub_index[tuple(range(i + 1))]]
                         for i in range(n + 1))
            row.append(L.total.id_of(n, (sid, beta)))
        bwd.append(row)
    f = SimplicialMap(L.total, R.total, fwd)
    g = SimplicialMap(R.total, L.total, bwd)
    return f, g, L, R


def fiber_at(R, c):
    """The sub-simplicial set over the constant simplices at an object, with
    the mutually-inverse pair onto the diagram value."""
    F = R.diagram
    C = F.shape
    NC = R.base_nerve
    cap = R.total.cap
    selected = []
    for n in range(cap + 1):
        const = constant_chain(NC, C, c, n)
        selected.append([s for s in R.total.simplices(n)
                         if R.proj.comp[n][s] == const])
    fib, inc = sub_sset(R.total, selected)
    X = F.values[c]
    to_value = []
    from_value = []
    for n in range(cap + 1):
        const = constant_chain(NC, C, c, n)
        row_to = [R.total.key_of(n, inc.comp[n][s])[1][n]
                  for s in fib.simplices(n)]
        to_value.append(row_to)
        row_from = []
        for x in X.simplices(n):
            beta = tuple(X.apply_vertex_map(n, x, tuple(range(i + 1)))
                         for i in range(n + 1))
            row_from.append(selected[n].index(
                R.total.id_of(n, (const, beta))))
        from_value.append(row_from)
    if X.cap != cap:
        from .sset import restrict
        X = restrict(X, cap)
    f = SimplicialMap(fib, X, to_value)
    g = SimplicialMap(X, fib, from_value)
    return fib, inc, f, g


def row_cotensor_diagram(F, t, cap_out):
    """The diagram d -> [Delta[t] => F(d)], with postcomposition action."""
    cache = _ExpCache(F.cap)
    values = [cache.exp(F.values[o], t, cap_out)
              for o in range(F.shape.n_objects)]
    maps = []
    for m in range(F.shape.n_morphisms):
        a, b = F.shape.src[m], F.shape.tgt[m]
        comp = [[values[b].id_of(mm, _table_postcompose(
            values[a].table(mm, e), F.maps[m]))
            for e in values[a].simplices(mm)] for mm in range(cap_out + 1)]
        maps.append(SimplicialMap(values[a], values[b], comp))
    from .fincat import SSetDiagram
    return SSetDiagram(F.shape, values, maps), cache


def row_identification(S, F, t, ncap):
    """Rem-style identification of the vertical-degree-t row of the
    simplicial space with the relative nerve of the cotensor diagram.

    Returns the mutually-inverse pair between ``S.bisset.row(t)`` and
    ``lurie_grothendieck(F^{Delta[t]}, ncap).total``.
    """
    G, cache = row_cotensor_diagram(F, t, ncap)
    target = lurie_grothendieck(G, ncap)
    row = S.bisset.row(t)
    NC = S.base_nerve
    # iteration order matches the disjoint-union layout of the columns
    fwd = []
    for n in range(ncap + 1):
        rowmap = []
        for sid, ps in enumerate(S.spaces[n]):
            for loc in ps.sset.simplices(t):
                tup = ps.sset.key_of(t, loc)
                gamma = []
                for j in range(n + 1):
                    table = ps.exps[j].table(t, tup[j])
                    swapped = _swap_prism_table(table, cache.delta(t),
                                                cache.delta(j))
                    gamma.append(G.values[ps.objects[j]].id_of(j, swapped))
                rowmap.append(target.total.id_of(n, (sid, tuple(gamma))))
        fwd.append(rowmap)
    bwd = []
    for n in range(ncap + 1):
        rowmap = []
        offsets = []
        run = 0
        for ps in S.spaces[n]:
            offsets.append(run)
            run += ps.sset.counts[t]
        for s in target.total.simplices(n):
            sid, gamma = target.total.key_of(n, s)
            ps = S.spaces[n][sid]
            tup = []
            for j in range(n + 1):
                table = G.values[ps.objects[j]].table(j, gamma[j])
                swapped = _swap_prism_table(table, cache.delta(j),
                                            cache.delta(t))
                tup.append(ps.exps[j].id_of(t, swapped))
            rowmap.append(offsets[sid] + ps.sset.id_of(t, tuple(tup)))
        bwd.append(rowmap)
    f = SimplicialMap(row, target.total, fwd)
    g = SimplicialMap(target.total, row, bwd)
    return f, g, target


def _swap_prism_table(table, A, B):
    """Reindex a value table over A x B as one over B x A."""
    out = []
    for d in range(len(table)):
        na, nb = A.counts[d], B.counts[d]
        row = [None] * (na * nb)
        for s, v in enumerate(table[d]):
            a, b = s // nb, s % nb
            row[b * na + a] = v
        out.append(tuple(row))
    return tuple(out)
