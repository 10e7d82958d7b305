import hashlib
import itertools
import os
import random

import pytest

from conftest import (arrow_diagram, identity_arrow_diagram, span_diagram,
                      terminal_diagram)
from relnerve.bisset import BiTruncSSet, box_product, i1_star
from relnerve.certify import (check_bisimplicial, check_simplicial_identities,
                              verify_iso_map)
from relnerve.fincat import (SSetDiagram, arrow_category, chain_arrows,
                             chain_category, chain_objects, constant_diagram,
                             map_over_nerve, nerve, over_nerve, span_category)
from relnerve.homology import homology_table
from relnerve.pathspace import (PathSpace, compare_relnerve_iso, fiber_at,
                                lurie_grothendieck, path_space_zigzag,
                                relative_nerve_direct, row_identification,
                                simplicial_space, space_projection_ok)
from relnerve.randomgen import SuiteBounds, random_sset_diagram
from relnerve.specio import parse_spec
from relnerve.sset import (Exponential, SSetError, TruncationError, boundary,
                           codegen_tuple, coface_tuple, constant_map,
                           discrete, identity_map, operator_tables,
                           shared_simplex, shared_vertex_map,
                           standard_simplex)


# -- path spaces ---------------------------------------------------------------

def test_path_space_degree_zero_is_first_value():
    F = terminal_diagram(boundary(2, 4))
    ps = PathSpace(F, (0,), 0, 2)
    assert ps.sset.counts == F.values[0].counts[:3]


def test_path_space_over_map_to_interval():
    # F(f): point -> Delta[1] hitting vertex 0: two compatible vertex pairs
    X0 = standard_simplex(0, 4)
    X1 = standard_simplex(1, 4)
    F = arrow_diagram(X0, X1, constant_map(X0, X1, X1.id_of(0, (0,))))
    ps = PathSpace(F, (1,), 1, 1)
    assert ps.sset.counts[0] == 2
    assert check_simplicial_identities(ps.sset).ok


def test_identity_string_path_space_is_exponential():
    Y = standard_simplex(1, 4)
    F = terminal_diagram(Y)
    for n in range(4):
        key = (0,) * max(n, 1)
        ps = PathSpace(F, key, n, 1)
        E = Exponential(Y, standard_simplex(n, 4), 1)
        # the top coordinate is the whole datum: certified isomorphism
        fwd = [[E.id_of(m, ps.exps[n].table(m, ps.sset.key_of(m, s)[n]))
                for s in ps.sset.simplices(m)] for m in range(2)]
        from relnerve.sset import SimplicialMap
        f = SimplicialMap(ps.sset, E, fwd)
        assert not f.validate()
        assert f.is_bijective()
        from relnerve.sset import invert_bijection
        assert verify_iso_map(f, invert_bijection(f)).ok


def test_zigzag_limit_oracle_agrees(span3):
    for key, n in (((3,), 1), ((4,), 1), ((2, 2), 2)):
        kk = key if n > 0 else (key[0],)
        ps = PathSpace(span3, kk, n, 1)
        assert ps.sset.counts == path_space_zigzag(span3, kk, n, 1)


def test_zigzag_oracle_on_nondiscrete_values():
    # noninvertible transport into an interval, one- and two-arrow chains
    X0 = standard_simplex(0, 4)
    X1 = standard_simplex(1, 4)
    F = arrow_diagram(X0, X1, constant_map(X0, X1, X1.id_of(0, (0,))))
    for key, n in (((1,), 1), ((0, 1), 2), ((1, 2), 2)):
        ps = PathSpace(F, key, n, 1)
        assert ps.sset.counts == path_space_zigzag(F, key, n, 1)


def test_path_space_demand_check():
    F = terminal_diagram(standard_simplex(1, 2))
    with pytest.raises(TruncationError):
        PathSpace(F, (0, 0), 2, 2)      # needs dimension 4 > 2


def test_paper_extreme_face_formulas():
    # the n-th face drops the last coordinate; the zeroth face
    # restricts every remaining coordinate along its initial coface
    F = span_diagram(4)
    S = simplicial_space(F, 2, 1)
    sid = S.base_nerve.id_of(2, (2, 3))
    for m in range(2):
        R = S.bisset.rows[m]
        for tup, s in R.index[2].ids[sid].items():
            assert R.key_of(1, R.faces[2][2][s])[1] == tup[:2]
    # zeroth face at the vertex level: honest d_0 on every later coordinate
    R = S.bisset.rows[0]
    for tup, s in R.index[2].ids[sid].items():
        tsid, img = R.key_of(1, R.faces[2][0][s])
        src, tgt = S.spaces[2][sid], S.spaces[1][tsid]
        for j in range(2):
            # the image simplex is the source simplex restricted along d^0
            Vj = F.values[src.objects[j + 1]]
            got = _vertex_level_simplex(src.exps[j + 1], 0, tup[j + 1],
                                        j + 1)
            face = Vj.faces[j + 1][0][got]
            assert _vertex_level_simplex(tgt.exps[j], 0, img[j], j) == face


def _vertex_level_simplex(E, m, e, i):
    """Decode a degree-0 mapping-object element as the honest i-simplex it
    classifies (evaluate its table at the top prism cell)."""
    P = E.prisms[m][0]
    D = E.deltas[m]
    top = D.id_of(0, (0,)) * E.arg.counts[i] + E.arg.id_of(i,
                                                           tuple(range(i + 1)))
    return E.table(m, e)[i][top]


def test_paper_degeneracy_formula_vertex_level():
    # S_i at the vertex level: coordinates j > i are s_i of the previous one
    F = span_diagram(4)
    S = simplicial_space(F, 2, 0)
    R, sid = S.bisset.rows[0], S.base_nerve.id_of(1, (3,))
    for tup, s in R.index[1].ids[sid].items():
        tsid, img = R.key_of(2, R.degens[1][0][s])
        src, tgt = S.spaces[1][sid], S.spaces[2][tsid]
        # coordinates 0..i are copied
        assert _vertex_level_simplex(tgt.exps[0], 0, img[0], 0) == \
            _vertex_level_simplex(src.exps[0], 0, tup[0], 0)
        V0 = F.values[src.objects[0]]
        assert _vertex_level_simplex(tgt.exps[1], 0, img[1], 1) == \
            V0.degens[0][0][_vertex_level_simplex(src.exps[0], 0, tup[0], 0)]


def test_simplicial_space_audit_and_projection(span3):
    S = simplicial_space(span3, 2, 1)
    assert check_bisimplicial(S.bisset).ok
    assert space_projection_ok(S)


def _zeroth_row_onto_relative_nerve(F, S):
    """The pair between row 0 of the simplicial space S of F and Lurie's
    relative nerve: the j-th coordinate, a map Delta[j] -> F(sigma(j)), is
    read as its value at the top simplex of its prism Delta[0] x Delta[j],
    the j-simplex it classifies, and back."""
    L = lurie_grothendieck(F, S.bisset.hcap)
    row, NC = i1_star(S.bisset), S.base_nerve
    forward, backward = {}, {}
    for E in {id(E): E for ps in itertools.chain(*S.spaces)
              for E in ps.exps}.values():
        j = E.arg.counts[0] - 1
        top = E.arg.id_of(j, tuple(range(j + 1)))
        table = [E.value(0, e, j, top) for e in E.simplices(0)]
        inverse = [None] * E.target.counts[j]
        for e, x in enumerate(table):
            inverse[x] = e
        forward[id(E)], backward[id(E)] = table, inverse

    def reads(tables):
        return lambda n, k: [(j, tables[id(E)]) for j, E in enumerate(
            S.spaces[n][NC.id_of(n, k)].exps)]

    return (map_over_nerve(NC, row, L.total, reads(forward)),
            map_over_nerve(NC, L.total, row, reads(backward)))


def test_zeroth_row_is_relative_nerve(span3):
    # simplicial, and certified isomorphic by the same pair whatever the
    # internal cap
    cases = [(span3, 2, 1), (span_diagram(3), 3, 0)] + [
        (random_sset_diagram(random.Random(s), SuiteBounds()), 4, 0)
        for s in range(30)]
    for F, ncap, mcap in cases:
        f, g = _zeroth_row_onto_relative_nerve(
            F, simplicial_space(F, ncap, mcap))
        assert check_simplicial_identities(f.domain).ok
        assert verify_iso_map(f, g).ok


def test_row_identification_with_cotensor(span3):
    # span3 at t = 1, and random diagrams where the rows and the cotensor's
    # mapping objects have prisms Delta[t] x Delta[j] with t != j
    rng = random.Random(5)
    randoms = [random_sset_diagram(rng, SuiteBounds()) for _ in range(4)]
    cases = [(span3, 1, 2)] + [(randoms[k], t, ncap) for k in (0, 3)
                               for t, ncap in ((1, 2), (2, 1))]
    for F, t, ncap in cases:
        S = simplicial_space(F, ncap, t)
        f, g, target = row_identification(S, F, t, ncap)
        assert verify_iso_map(f, g).ok, (t, ncap)


def _path_space_digest(S):
    return hashlib.sha256(repr([
        (ps.sset.keys, ps.sset.faces, ps.sset.degens)
        for row in S.spaces for ps in row]).encode()).hexdigest()


def _shared_sizes(spaces):
    """The memo's size, and the prism and prism-plan cache sizes of each
    shared simplex the path spaces read, by object."""
    shared = {id(D): D for S in spaces for row in S.spaces for ps in row
              for E in ps.exps for D in [E.arg] + E.deltas}
    return (shared_simplex.cache_info().currsize,
            shared_vertex_map.cache_info().currsize,
            {i: (len(D._prism_cache), len(D._prism_plan_cache))
             for i, D in shared.items()})


def test_shared_simplices_stay_bounded_and_intact():
    # every path space reads Delta[n], its prisms and their plans from one
    # process-wide memo: a second round over the same diagrams adds nothing
    # to it, and a diagram gets the same tables whatever was built before
    rng = random.Random(5)
    diagrams = [random_sset_diagram(rng, SuiteBounds()) for _ in range(8)]
    shared_simplex.cache_clear()
    shared_vertex_map.cache_clear()
    first = [simplicial_space(F, 2, 2) for F in diagrams]
    sizes = _shared_sizes(first)
    second = [simplicial_space(F, 2, 2) for F in diagrams]
    assert _shared_sizes(second) == sizes
    assert _path_space_digest(simplicial_space(diagrams[0], 2, 2)) == \
        _path_space_digest(first[0])


def test_columns_are_disjoint_unions_of_path_spaces():
    # an independent route to the id layout: column n lists the path spaces
    # over the base n-simplices one after another, each block with its own
    # operators shifted by the sizes of the blocks before it
    rng = random.Random(5)
    for F in (span_diagram(4), random_sset_diagram(rng, SuiteBounds())):
        S = simplicial_space(F, 2, 2)
        for n in range(3):
            col, blocks = S.bisset.columns[n], [ps.sset for ps in S.spaces[n]]
            assert col.counts == [sum(P.counts[m] for P in blocks)
                                  for m in range(3)]
            for d, lo in ((-1, 1), (1, 0)):
                for m in range(lo, 2 + lo):
                    for j in range(m + 1):
                        want, offset = [], 0
                        for P in blocks:
                            want += [offset + t for t in P.operator(m, j, d)]
                            offset += P.counts[m + d]
                        assert col.operator(m, j, d) == want
            for m in range(3):
                assert S.proj[n][m] == [sid for sid, ps
                                        in enumerate(S.spaces[n])
                                        for _ in ps.sset.simplices(m)]


def test_constant_point_space_is_boxed_base():
    # every column of the simplicial space over the constant point diagram
    # is a disjoint union of points, one per base simplex
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    S = simplicial_space(F, 2, 1)
    NC = nerve(C, 2)
    for n in range(3):
        for m in range(2):
            assert S.bisset.counts[n][m] == NC.counts[n]


def test_box_product_shape():
    K = standard_simplex(1, 2)
    L = boundary(2, 2)
    B = box_product(K, L)
    for n in range(3):
        for m in range(3):
            assert B.counts[n][m] == K.counts[n] * L.counts[m]
    assert check_bisimplicial(B).ok


def test_box_product_rows_and_columns_share_ids():
    # (x, y) has id x * |L_m| + y both in row m and in column n
    K, L = standard_simplex(1, 2), boundary(2, 2)
    B = box_product(K, L)
    for n in range(3):
        for m in range(3):
            pairs = [(x, y) for x in K.simplices(n) for y in L.simplices(m)]
            for d in (-1, 1):
                for i in range(n + 1 if 0 <= n + d <= 2 else 0):
                    op = K.operator(n, i, d)
                    assert B.rows[m].operator(n, i, d) == [
                        op[x] * L.counts[m] + y for x, y in pairs]
                for j in range(m + 1 if 0 <= m + d <= 2 else 0):
                    op = L.operator(m, j, d)
                    assert B.columns[n].operator(m, j, d) == [
                        x * L.counts[m + d] + op[y] for x, y in pairs]


def test_rows_and_columns_must_agree():
    rows = [discrete(2, 1)]                     # hcap 1, vcap 0
    assert BiTruncSSet(rows, [discrete(2, 0)] * 2).counts == [[2], [2]]
    with pytest.raises(SSetError):
        BiTruncSSet(rows, [discrete(2, 0), discrete(3, 0)])
    with pytest.raises(SSetError):
        BiTruncSSet(rows, [discrete(2, 1)] * 2)
    with pytest.raises(SSetError):
        BiTruncSSet(rows, [discrete(2, 0)] * 3)


# -- the relative nerve --------------------------------------------------------

def test_constant_diagram_gives_base_nerve():
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    R = lurie_grothendieck(F, 3)
    assert R.total.counts == nerve(C, 3).counts
    assert R.proj.is_bijective()


def test_terminal_base_gives_value():
    X = boundary(2, 3)
    R = lurie_grothendieck(terminal_diagram(X), 3)
    assert R.total.counts == X.counts


def test_span_total_is_circle(span3):
    R = lurie_grothendieck(span3, 3)
    assert R.total.counts[0] == 4
    assert len(R.total.nondegenerate(1)) == 4
    assert len(R.total.nondegenerate(2)) == 0
    assert homology_table(R.total, 1) == [(1, []), (1, [])]


def test_direct_relative_nerve_matches(span3):
    Rd = relative_nerve_direct(span3, 3)
    R = lurie_grothendieck(span3, 3)
    assert Rd.total.counts == R.total.counts
    assert check_simplicial_identities(Rd.total).ok


# -- the direct construction found by faces, kept as a reference

def _reference_relative_nerve_direct(F, cap):
    """The subposet-indexed construction with its families grown one
    subposet at a time, each simplex looked up by its whole boundary, and
    its restriction plans rebuilt on every call: the total and the
    projection."""
    C = F.shape
    NC = nerve(C, cap)
    subs = [[J for r in range(1, n + 2)
             for J in itertools.combinations(range(n + 1), r)]
            for n in range(cap + 1)]
    sub_index = [{J: p for p, J in enumerate(ss)} for ss in subs]
    grow = [sorted(ss, key=lambda J: (J[-1], len(J), J)) for ss in subs]
    grow_index = [{J: p for p, J in enumerate(gs)} for gs in grow]
    layout = [[grow_index[n][J] for J in subs[n]] for n in range(cap + 1)]

    def families(n, k):
        objs, arrows = chain_objects(C, k, n), chain_arrows(C, k, n)
        cols, size = [], 1
        for J in grow[n]:
            j = J[-1]
            Xj = F.values[objs[j]]
            r = len(J) - 1
            if not r:
                m = Xj.counts[0]
                cols = [[v for v in col for _ in range(m)] for col in cols]
                cols.append(list(range(m)) * size)
                size *= m
                continue
            cofaces = [J[:drop] + J[drop + 1:] for drop in range(r + 1)]
            profiles = zip(*[
                map(F.maps[arrows[I[-1]][j]]
                    .comp[len(I) - 1].__getitem__, cols[grow_index[n][I]])
                for I in cofaces])
            found = list(map(Xj.by_faces(r, range(r + 1)).get, profiles,
                             itertools.repeat(())))
            new = [y for ys in found for y in ys]
            if len(new) != size or not all(found):
                keep = [f for f, ys in enumerate(found) for _ in ys]
                cols = [list(map(col.__getitem__, keep)) for col in cols]
                size = len(keep)
            cols.append(new)
        return sorted(zip(*[cols[q] for q in layout[n]]))

    def restriction(n_from, n_to, vmap):
        plan = []
        for J in subs[n_to]:
            image = tuple(sorted(set(vmap[v] for v in J)))
            plan.append((J[-1], sub_index[n_from][image], len(image) - 1,
                         tuple(image.index(vmap[v]) for v in J)))
        return plan

    face_plans, degen_plans = operator_tables(cap, lambda n, i, d: restriction(
        n, n + d, (coface_tuple if d < 0 else codegen_tuple)(n, i)))

    def op(n, i, d, k):
        if d < 0:
            return [(p, None) for _, p, _, _ in face_plans[n][i]]
        # vertex j of s_i k is vertex j - [j > i] of k
        objs = chain_objects(C, k, n)
        return [(p, F.values[objs[j - (j > i)]].op_table(r, u))
                for j, p, r, u in degen_plans[n][i]]

    return over_nerve(NC, cap, families, op)


def _corrupted_composite_diagram(cap):
    """Delta[2] at each object of [2], the identity along 0 -> 1 and 1 -> 2,
    and along their composite the constant map at vertex 0."""
    C = chain_category(2)
    X = standard_simplex(2, cap)
    maps = [constant_map(X, X, 0) if (C.src[m], C.tgt[m]) == (0, 2)
            else identity_map(X) for m in range(C.n_morphisms)]
    return SSetDiagram(C, [X] * 3, maps)


def _direct_cases():
    for s in range(30):
        F = random_sset_diagram(random.Random(s), SuiteBounds())
        yield from ((F, cap) for cap in range(5))
    with open(os.path.join(os.path.dirname(__file__), "fixtures",
                           "span.rnspec")) as fh:
        spec = parse_spec(fh.read())
    yield spec.diagram, spec.cap
    yield _corrupted_composite_diagram(3), 3


def test_direct_relative_nerve_matches_the_reference():
    # the corrupted composite makes the checks that functoriality implies
    # drop families
    for F, cap in _direct_cases():
        R = relative_nerve_direct(F, cap)
        total, proj = _reference_relative_nerve_direct(F, cap)
        assert R.total.keys == total.keys, cap
        assert (R.total.faces, R.total.degens) == \
            (total.faces, total.degens), cap
        assert R.proj.comp == proj.comp, cap


def test_comparison_iso_roundtrip(span3):
    f, g, L, R = compare_relnerve_iso(span3, 3)
    assert verify_iso_map(f, g).ok
    # both directions commute with the projections
    for n in range(4):
        for s in L.total.simplices(n):
            assert R.proj.comp[n][f.comp[n][s]] == L.proj.comp[n][s]


def test_comparison_iso_constant_point():
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    f, g, L, R = compare_relnerve_iso(F, 3)
    assert verify_iso_map(f, g).ok


def test_fibers_are_values(span3):
    R = lurie_grothendieck(span3, 3)
    for c, want in ((0, 1), (1, 1), (2, 2)):
        fib, inc, f, g = fiber_at(R, c)
        assert fib.counts[0] == want
        assert verify_iso_map(f, g).ok


def test_fiber_of_terminal_base_is_total():
    X = boundary(2, 3)
    R = lurie_grothendieck(terminal_diagram(X), 3)
    fib, inc, f, g = fiber_at(R, 0)
    assert fib.counts == R.total.counts


def test_cat_valued_diagram_relnerve_counts():
    # over [1] with values the nerve of [1]: fibers glue into a prism-like
    # total whose identity audit passes
    cap = 3
    N1 = nerve(arrow_category(), cap)
    F = identity_arrow_diagram(N1, cap)
    R = lurie_grothendieck(F, cap)
    assert check_simplicial_identities(R.total).ok
    for c in (0, 1):
        fib, inc, f, g = fiber_at(R, c)
        assert verify_iso_map(f, g).ok
    f, g, L, Rd = compare_relnerve_iso(F, cap)
    assert verify_iso_map(f, g).ok


def test_deep_columns_zeroth_row_matches_relnerve(span3):
    # horizontal operators at base degree 3 via the vertex-level space
    S = simplicial_space(span3, 3, 0)
    from relnerve.certify import check_bisimplicial
    assert check_bisimplicial(S.bisset).ok
    row0 = i1_star(S.bisset)
    R = lurie_grothendieck(span3, 3)
    assert row0.counts == R.total.counts
    assert check_simplicial_identities(row0).ok
