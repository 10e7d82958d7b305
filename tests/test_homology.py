import pytest

from relnerve.homology import (HomologyError, format_homology,
                               homology_groups, homology_table,
                               normalized_chains, pi0, smith_normal_form)
from relnerve.sset import (boundary, discrete, disjoint_union,
                           standard_simplex, walking_iso)


def matmul(A, B):
    if not A or not B:
        return []
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[r][k] * B[k][c] for k in range(inner)) for c in range(cols)]
            for r in range(rows)]


def is_zero(A):
    return all(all(v == 0 for v in row) for row in A)


def test_point_chain_ranks():
    ranks, boundaries = normalized_chains(standard_simplex(0, 3))
    assert ranks == [1, 0, 0, 0]


def test_boundary_two_sphere_edge_ranks_and_d_squared():
    B = boundary(2, 2)
    ranks, boundaries = normalized_chains(B)
    assert ranks == [3, 3, 0]
    # the hand matrix of the triangle boundary: each edge hits its endpoints
    mat = boundaries[1]
    assert sorted(sorted(col) for col in zip(*mat)) == \
        [[-1, 0, 1]] * 3
    assert is_zero(matmul(boundaries[1], boundaries[2])) or \
        boundaries[2] == []


def test_d_squared_zero_everywhere():
    for X in (standard_simplex(2, 3), boundary(3, 3), walking_iso(3)):
        ranks, boundaries = normalized_chains(X)
        for n in range(2, X.cap + 1):
            if ranks[n] and ranks[n - 2]:
                assert is_zero(matmul(boundaries[n - 1], boundaries[n]))


def test_smith_normal_form_hand_cases():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[6, 4], [4, 6]]) == [2, 10]


def test_simplex_is_acyclic():
    for n in (1, 2, 3):
        D = standard_simplex(n, 3)
        assert homology_groups(D, 0) == (1, [])
        for k in range(1, 3):
            assert homology_groups(D, k) == (0, [])


def test_boundary_three_simplex_is_a_two_sphere():
    B = boundary(3, 3)
    assert homology_groups(B, 0) == (1, [])
    assert homology_groups(B, 1) == (0, [])
    assert homology_groups(B, 2) == (1, [])


def test_circle_from_relative_nerve(span3):
    from relnerve.pathspace import lurie_grothendieck
    R = lurie_grothendieck(span3, 3)
    assert homology_table(R.total, 2) == [(1, []), (1, []), (0, [])]


def test_torsion_of_z2_classifying_space():
    from relnerve.fincat import cyclic_group_category, nerve
    N = nerve(cyclic_group_category(2), 4)
    assert homology_groups(N, 0) == (1, [])
    assert homology_groups(N, 1) == (0, [2])
    assert homology_groups(N, 2) == (0, [])
    assert homology_groups(N, 3) == (0, [2])


def test_trusted_range_is_enforced():
    D = standard_simplex(1, 2)
    with pytest.raises(HomologyError):
        homology_groups(D, 2)


def test_pi0():
    assert len(pi0(standard_simplex(3, 3))) == 1
    assert len(pi0(discrete(2, 1))) == 2
    assert len(pi0(walking_iso(2))) == 1
    two_comp = disjoint_union([standard_simplex(1, 1), boundary(2, 1)])[0]
    assert len(pi0(two_comp)) == 2


def test_h0_rank_matches_pi0():
    for X in (standard_simplex(2, 2), boundary(2, 2), walking_iso(2),
              disjoint_union([standard_simplex(0, 2), boundary(2, 2)])[0]):
        assert homology_groups(X, 0)[0] == len(pi0(X))


def test_report_rows_format():
    rows = format_homology([(1, []), (0, [2, 4])])
    assert rows == ["H_0 betti=1 torsion=-", "H_1 betti=0 torsion=2,4"]


def test_homology_invariant_under_certified_isos(span3):
    # sanity coupling with the certification engine
    from relnerve.certify import verify_iso_map
    from relnerve.pathspace import compare_relnerve_iso
    f, g, L, R = compare_relnerve_iso(span3, 3)
    assert verify_iso_map(f, g).ok
    assert homology_table(L.total, 2) == homology_table(R.total, 2)
