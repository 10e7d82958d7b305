import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relnerve.homology import (HomologyError, _dense_invariants,
                               format_homology, homology_groups,
                               homology_table, normalized_chains, pi0,
                               smith_normal_form)
from relnerve.sset import (boundary, discrete, disjoint_union,
                           standard_simplex, walking_iso)


def matmul(A, B):
    if not A or not B:
        return []
    rows, inner, cols = len(A), len(B), len(B[0])
    return [[sum(A[r][k] * B[k][c] for k in range(inner)) for c in range(cols)]
            for r in range(rows)]


def columns(A):
    """Dense rows as sparse ``{row: coefficient}`` columns."""
    return [{r: row[c] for r, row in enumerate(A) if row[c]}
            for c in range(len(A[0]) if A else 0)]


def dense(cols, nrows):
    """Sparse columns as dense rows."""
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def compose(low, high):
    """Columns of ``low . high``: column ``c`` of ``high`` is a sum over
    the columns of ``low``."""
    out = []
    for col in high:
        acc = {}
        for k, v in col.items():
            for r, w in low[k].items():
                acc[r] = acc.get(r, 0) + v * w
        out.append({r: v for r, v in acc.items() if v})
    return out


def test_point_chain_ranks():
    ranks, boundaries = normalized_chains(standard_simplex(0, 3))
    assert ranks == [1, 0, 0, 0]


def test_boundary_two_sphere_edge_ranks_and_d_squared():
    B = boundary(2, 2)
    ranks, boundaries = normalized_chains(B)
    assert ranks == [3, 3, 0]
    # the hand matrix of the triangle boundary: each edge hits its endpoints
    mat = dense(boundaries[1], ranks[0])
    assert sorted(sorted(col) for col in zip(*mat)) == \
        [[-1, 0, 1]] * 3
    assert all(0 not in col.values() for col in boundaries[1])
    assert boundaries[2] == []
    assert compose(boundaries[1], boundaries[2]) == [{}] * ranks[2]


def test_d_squared_zero_everywhere():
    for X in (standard_simplex(2, 3), boundary(3, 3), walking_iso(3)):
        ranks, boundaries = normalized_chains(X)
        for n in range(2, X.cap + 1):
            assert len(boundaries[n]) == ranks[n]
            assert compose(boundaries[n - 1], boundaries[n]) == \
                [{}] * ranks[n]


def test_smith_normal_form_hand_cases():
    def factors(A):
        return smith_normal_form(columns(A))[0]
    assert factors([[2, 0], [0, 3]]) == [1, 6]
    assert factors([[0, 0], [0, 0]]) == []
    assert factors([[2, 4], [4, 8]]) == [2]
    assert factors([[1, 0], [0, 1]]) == [1, 1]
    assert factors([[6, 4], [4, 6]]) == [2, 10]
    # the unit pivots come back as their rows, in elimination order
    assert smith_normal_form(columns([[0, 1], [1, 0]])) == ([1, 1], [1, 0])


@st.composite
def _unimodular(draw, size):
    """A product of elementary integer row operations on the identity."""
    M = [[int(r == c) for c in range(size)] for r in range(size)]
    if size < 2:
        return M
    index = st.integers(0, size - 1)
    for op, i, j, k in draw(st.lists(st.tuples(
            st.sampled_from("asn"), index, index, st.integers(-3, 3)),
            max_size=8)):
        if op == "a" and i != j:
            M[i] = [x + k * y for x, y in zip(M[i], M[j])]
        elif op == "s":
            M[i], M[j] = M[j], M[i]
        elif op == "n":
            M[i] = [-x for x in M[i]]
    return M


@st.composite
def _matrix_with_known_factors(draw):
    """``(U D V, diagonal of D)`` for unimodular U, V."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    diag = draw(st.lists(st.integers(0, 12), min_size=min(m, n),
                         max_size=min(m, n)))
    D = [[diag[r] if r == c else 0 for c in range(n)] for r in range(m)]
    return matmul(matmul(draw(_unimodular(m)), D), draw(_unimodular(n))), diag


def _divisibility_chain(diag):
    """Nonzero entries of a diagonal, made a divisibility chain by
    gcd/lcm exchanges (prime by prime, this sorts the valuations)."""
    d = [x for x in diag if x]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d


@settings(max_examples=300, deadline=None)
@given(_matrix_with_known_factors())
def test_smith_normal_form_matches_dense_oracle(case):
    A, diag = case
    assume(any(x > 1 for x in diag))          # the matrix has torsion
    factors, _ = smith_normal_form(columns(A))
    assert factors == _dense_invariants([row[:] for row in A])
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert factors == _divisibility_chain(diag)


def _dense_table(X, max_degree):
    """The homology table from ``_dense_invariants`` on each whole boundary,
    with no pivot elimination and no clearing."""
    ranks, boundaries = normalized_chains(X)
    inv = [[]] + [_dense_invariants(dense(boundaries[n], ranks[n - 1]))
                  for n in range(1, max_degree + 2)]
    return [(ranks[k] - len(inv[k]) - len(inv[k + 1]),
             [d for d in inv[k + 1] if d > 1]) for k in range(max_degree + 1)]


def test_clearing_changes_no_table():
    from relnerve.fincat import cyclic_group_category, nerve
    from relnerve.hocolim import bar_hocolim
    from relnerve.randomgen import SuiteBounds, random_cat_diagram
    z2 = nerve(cyclic_group_category(2), 5)
    # the generator loop's faces cancel, and H_1 = Z/2 comes from the core
    assert {} in normalized_chains(z2)[1][1]
    assert homology_table(z2, 4)[1] == (0, [2])
    cases = [boundary(3, 3), walking_iso(4), z2]
    bounds = SuiteBounds()
    for seed in range(20):
        G = random_cat_diagram(random.Random(seed), bounds)
        cases.append(bar_hocolim(G.nerve_diagram(bounds.cap), bounds.cap).total)
    for X in cases:
        assert homology_table(X, X.cap - 1) == _dense_table(X, X.cap - 1)


def test_table_equals_groups_degree_by_degree(span3):
    from relnerve.fincat import cyclic_group_category, nerve
    from relnerve.hocolim import bar_hocolim
    from relnerve.pathspace import lurie_grothendieck
    from relnerve.randomgen import SuiteBounds, random_cat_diagram
    G = random_cat_diagram(random.Random(5), SuiteBounds())
    for X, k in ((lurie_grothendieck(span3, 3).total, 2),
                 (nerve(cyclic_group_category(2), 4), 3),
                 (bar_hocolim(G.nerve_diagram(4), 4).total, 3)):
        assert homology_table(X, k) == \
            [homology_groups(X, j) for j in range(k + 1)]


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
