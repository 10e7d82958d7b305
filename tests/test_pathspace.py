import hashlib
import random

import pytest

from conftest import (arrow_diagram, identity_arrow_diagram, span_diagram,
                      terminal_diagram)
from relnerve.bisset import box_product, i1_star
from relnerve.certify import (check_bisimplicial, check_simplicial_identities,
                              verify_iso_map)
from relnerve.fincat import (arrow_category, constant_diagram, nerve,
                             span_category)
from relnerve.homology import homology_table
from relnerve.pathspace import (PathSpace, compare_relnerve_iso, fiber_at,
                                lurie_grothendieck, path_space_zigzag,
                                path_structure_map, relative_nerve_direct,
                                row_identification, simplicial_space,
                                space_projection_ok)
from relnerve.randomgen import SuiteBounds, random_sset_diagram
from relnerve.sset import (Exponential, TruncationError, boundary,
                           constant_map, disjoint_union, shared_simplex,
                           shared_vertex_map, standard_simplex)


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


def test_structure_maps_land_correctly(span3):
    fmap, src, tgt = path_structure_map(span3, (3,), 1, 1, "face", 1)
    assert not fmap.validate()
    smap, src2, tgt2 = path_structure_map(span3, (3,), 1, 0, "degeneracy", 1)
    assert not smap.validate()
    # degeneracy then face at the same index is the identity on tuples
    back, _, _ = path_structure_map(span3, tgt2.sigma_key, 2, 0, "face", 1)
    for m in range(2):
        for s in src2.sset.simplices(m):
            assert back.comp[m][smap.comp[m][s]] == s


def test_paper_extreme_face_formulas():
    # the n-th face drops the last coordinate; the zeroth face
    # restricts every remaining coordinate along its initial coface
    F = span_diagram(4)
    fmap, src, tgt = path_structure_map(F, (2, 3), 2, 2, "face", 1)
    for m in range(2):
        for s in src.sset.simplices(m):
            tup = src.sset.key_of(m, s)
            img = tgt.sset.key_of(m, fmap.comp[m][s])
            assert img == tup[:2]
    # zeroth face at the vertex level: honest d_0 on every later coordinate
    zmap, zsrc, ztgt = path_structure_map(F, (2, 3), 2, 0, "face", 0)
    for s in zsrc.sset.simplices(0):
        tup = zsrc.sset.key_of(0, s)
        img = ztgt.sset.key_of(0, zmap.comp[0][s])
        for j in range(2):
            x = zsrc.exps[j + 1].table(0, tup[j + 1])
            want = ztgt.exps[j].table(0, img[j])
            # the image table is the source table restricted along d^0
            Vj = F.values[zsrc.objects[j + 1]]
            got = _vertex_level_simplex(zsrc.exps[j + 1], 0, tup[j + 1],
                                        j + 1)
            face = Vj.faces[j + 1][0][got]
            assert _vertex_level_simplex(ztgt.exps[j], 0, img[j], j) == face


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
    smap, src, tgt = path_structure_map(F, (3,), 1, 0, "degeneracy", 0)
    for s in src.sset.simplices(0):
        tup = src.sset.key_of(0, s)
        img = tgt.sset.key_of(0, smap.comp[0][s])
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


def test_zeroth_row_is_relative_nerve(span3):
    S = simplicial_space(span3, 2, 1)
    row0 = i1_star(S.bisset)
    R = lurie_grothendieck(span3, 2)
    assert row0.counts == R.total.counts
    # elementwise: the vertex-level tuples coincide with the beta tuples
    assert check_simplicial_identities(row0).ok


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
    # an independent route to the id layout: column n is the blockwise
    # disjoint union of the path spaces over the base n-simplices
    rng = random.Random(5)
    for F in (span_diagram(4), random_sset_diagram(rng, SuiteBounds())):
        S = simplicial_space(F, 2, 2)
        for n in range(3):
            col = S.bisset.column(n)
            U, _ = disjoint_union([ps.sset for ps in S.spaces[n]])
            assert col.counts == U.counts
            assert col.faces == U.faces and col.degens == U.degens
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
