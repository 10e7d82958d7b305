import functools
import hashlib
import itertools
import os
import random

import pytest

from relnerve.certify import check_simplicial_identities, verify_iso_map
from relnerve.fincat import cyclic_group_category, nerve
from relnerve.randomgen import (SuiteBounds, random_sub_delta,
                                random_sub_delta_map)
from relnerve.sset import (Exponential, KeyedSSet, SimplicialMap, SSetError,
                           TruncationError, TruncSSet, boundary,
                           build_generated, classes, classifying_map,
                           codegen_tuple, coface_tuple, constant_map,
                           delta_map, discrete, enumerate_maps, first_map,
                           generated_size, horn,
                           identity_map, invert_bijection, keyed_tables,
                           operator_tables, product, pushout, restrict,
                           standard_simplex, sub_sset, walking_iso)


def binomial(n, k):
    from math import comb
    return comb(n, k)


def test_standard_simplex_stays_fresh():
    # prisms and mapping objects read Delta[n] from a process-wide memo,
    # which never hands out what standard_simplex returns: corrupting that
    # leaves a later mapping object intact
    assert standard_simplex(2, 4) is not standard_simplex(2, 4)
    Y = walking_iso(4)

    def digest():
        E = Exponential(Y, standard_simplex(1, 4), 1)
        return hashlib.sha256(repr((
            E.keys, E.faces, E.degens,
            [[E.table(n, s) for s in E.simplices(n)] for n in range(2)]))
            .encode()).hexdigest()

    before = digest()
    D = standard_simplex(1, 4)
    D.faces[1][0][D.id_of(1, (0, 1))] = D.id_of(0, (0,))
    assert digest() == before


def test_delta_counts():
    D = standard_simplex(2, 2)
    # monotone maps [m] -> [2]
    assert D.counts == [3, 6, 10]
    assert check_simplicial_identities(D).ok


def test_boundary_counts():
    B = boundary(2, 2)
    assert [len(B.nondegenerate(n)) for n in range(3)] == [3, 3, 0]
    assert check_simplicial_identities(B).ok


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (3, 2)])
def test_horn_counts(n, k):
    H = horn(n, k, n)
    D = standard_simplex(n, n)
    # the horn misses the top cell and the k-th facet
    missing = 2
    assert len(H.nondegenerate(n - 1)) == len(D.nondegenerate(n - 1)) - 1
    assert sum(len(H.nondegenerate(m)) for m in range(n + 1)) == \
        sum(len(D.nondegenerate(m)) for m in range(n + 1)) - missing
    assert check_simplicial_identities(H).ok


def test_generated_size_counts_every_simplex():
    cases = [(kind, n, 0) for n in range(5)
             for kind in ("delta", "boundary", "discrete", "point", "J")]
    cases += [("horn", n, k) for n in range(5) for k in range(n + 1)]
    for cap in range(5):
        for kind, n, k in cases:
            X = build_generated(kind, cap, n=n, k=k)
            assert generated_size(kind, cap, n=n, k=k) == sum(X.counts), \
                (kind, cap, n, k)


def test_horn_index_validation():
    with pytest.raises(SSetError):
        horn(2, 3, 2)
    with pytest.raises(SSetError):
        build_generated("horn", 2, n=2, k=-1)


def test_walking_iso_nondegenerate_profile():
    J = walking_iso(3)
    assert [len(J.nondegenerate(n)) for n in range(4)] == [2, 2, 2, 2]
    assert check_simplicial_identities(J).ok


def test_walking_iso_agrees_with_groupoid_nerve():
    from relnerve.fincat import indiscrete_groupoid, nerve
    J = walking_iso(3)
    N = nerve(indiscrete_groupoid(2), 3)
    assert J.counts == N.counts
    assert [len(J.nondegenerate(n)) for n in range(4)] == \
        [len(N.nondegenerate(n)) for n in range(4)]


def test_apply_vertex_map_against_delta_composition():
    D = standard_simplex(3, 3)
    for l in range(4):
        for u in itertools.combinations_with_replacement(range(4), l + 1):
            for s in D.simplices(3):
                t = D.key_of(3, s)
                assert D.apply_vertex_map(3, s, u) == \
                    D.id_of(l, tuple(t[v] for v in u))


def test_vertex_tuple():
    # the k-th vertex of a simplex is X(k: [0] -> [n]) of it
    D = standard_simplex(2, 2)
    for s in D.simplices(2):
        assert tuple(D.op_table(2, (k,))[s] for k in range(3)) == tuple(
            D.id_of(0, (v,)) for v in D.key_of(2, s))


def _operator_table_objects():
    """Values and both relative nerves of seeded random diagrams, and the
    nerves of seeded random Cat-valued diagrams' values."""
    import random
    from relnerve.pathspace import lurie_grothendieck, relative_nerve_direct
    from relnerve.randomgen import (SuiteBounds, random_cat_diagram,
                                    random_sset_diagram)
    rng = random.Random(3)
    for _ in range(3):
        F = random_sset_diagram(rng, SuiteBounds())
        yield from F.values
        yield lurie_grothendieck(F, 4).total
        yield relative_nerve_direct(F, 3).total
        yield from random_cat_diagram(rng, SuiteBounds()).nerve_diagram(
            3).values


def test_op_table_is_the_simplicial_action():
    import random
    from relnerve.sset import codegen_tuple, coface_tuple
    rng = random.Random(0)
    for X in _operator_table_objects():
        monotone = [(l, u) for l in range(X.cap + 1)
                    for n in range(X.cap + 1)
                    for u in itertools.combinations_with_replacement(
                        range(n + 1), l + 1)]
        for n in range(X.cap + 1):
            assert X.op_table(n, tuple(range(n + 1))) == \
                list(X.simplices(n))
            for i in range(n + 1):
                if n:
                    assert X.op_table(n, coface_tuple(n, i)) == X.faces[n][i]
                if n < X.cap:
                    assert X.op_table(n, codegen_tuple(n, i)) == \
                        X.degens[n][i]
            # functoriality on sampled pairs u: [l] -> [n], v: [k] -> [l]
            into_n = [(l, u) for l, u in monotone if max(u) <= n]
            for l, u in rng.sample(into_n, min(40, len(into_n))):
                into_l = [v for _, v in monotone if max(v) <= l]
                for v in rng.sample(into_l, min(10, len(into_l))):
                    uv = tuple(u[j] for j in v)
                    after = X.op_table(l, v)
                    assert [after[t] for t in X.op_table(n, u)] == \
                        X.op_table(n, uv)


def test_degenerate_flags_match_the_definition():
    # s is degenerate iff s = s_i d_i s for some i
    for X in _operator_table_objects():
        for n in range(1, X.cap + 1):
            assert X.degenerate_flags(n) == [
                any(X.degens[n - 1][i][X.faces[n][i][s]] == s
                    for i in range(n)) for s in X.simplices(n)]


def test_ez_table_unique_and_normalized():
    P = standard_simplex(0, 2)
    assert P.ez_table(2)[0] == ([1, 0], 0, 0)
    # nondegenerate simplices decompose trivially
    D = standard_simplex(1, 2)
    e = D.id_of(1, (0, 1))
    assert D.ez_table(1)[e] == ([], 1, e)


def test_ez_table_is_the_eilenberg_zilber_decomposition():
    # the table is built degree by degree from the one below; each entry
    # (word, m, y) must give s back from a nondegenerate y by a strictly
    # decreasing word, which pins it by the uniqueness of the decomposition
    cap = 3
    fixtures = [standard_simplex(0, cap), standard_simplex(2, cap),
                boundary(2, cap), horn(2, 1, cap), walking_iso(cap),
                nerve(cyclic_group_category(2), cap),
                standard_simplex(1, cap).prism(2)[0],
                walking_iso(cap).prism(1)[0]]
    rng = random.Random(11)
    values = [random_sub_delta(rng, SuiteBounds(), 4) for _ in range(12)]
    for X in fixtures + values + list(_operator_table_objects()):
        nondeg = [set(X.nondegenerate(m)) for m in range(X.cap + 1)]
        for n in range(X.cap + 1):
            for s, (word, m, y) in enumerate(X.ez_table(n)):
                assert X.apply_word(m, y, word) == s
                assert y in nondeg[m]
                assert all(a > b for a, b in zip(word, word[1:]))


def test_ez_table_refuses_a_word_that_is_not_decreasing():
    # one vertex v and its edge s_0 v; s_0 and s_1 send that edge to two
    # different 2-simplices, so 0 = s_0 s_0 v is degenerate only by s_0
    # and its word would be [0, 0]
    bad = TruncSSet(2, [1, 1, 2], [None, [[0], [0]], [[0, 0]] * 3],
                    [[[0]], [[0], [1]]])
    with pytest.raises(SSetError):
        bad.ez_table(2)


def test_product_of_intervals():
    D1 = standard_simplex(1, 2)
    P, p1, p2 = product(D1, D1)
    assert P.counts[0] == 4
    assert len(P.nondegenerate(1)) == 5
    assert len(P.nondegenerate(2)) == 2
    assert check_simplicial_identities(P).ok
    assert not p1.validate() and not p2.validate()


def test_product_unit_and_swap():
    X = boundary(2, 2)
    pt = standard_simplex(0, 2)
    P, p1, _ = product(X, pt)
    assert p1.is_bijective()
    inv = invert_bijection(p1)
    assert verify_iso_map(p1, inv).ok
    # symmetry via the swap map
    Y = standard_simplex(1, 2)
    XY, pr1, pr2 = product(X, Y)
    YX, q1, q2 = product(Y, X)
    swap = [[pr2.comp[n][s] * X.counts[n] + pr1.comp[n][s]
             for s in range(XY.counts[n])] for n in range(3)]
    from relnerve.sset import SimplicialMap
    sw = SimplicialMap(XY, YX, swap)
    assert not sw.validate() and sw.is_bijective()


def test_operator_tables_layout_and_operator():
    faces, degens = operator_tables(2, lambda n, i, d: (n, i, d))
    assert faces == [None, [(1, 0, -1), (1, 1, -1)],
                     [(2, 0, -1), (2, 1, -1), (2, 2, -1)]]
    assert degens == [[(0, 0, 1)], [(1, 0, 1), (1, 1, 1)]]
    X = standard_simplex(2, 2)
    assert X.operator(2, 1, -1) is X.faces[2][1]
    assert X.operator(1, 0, 1) is X.degens[1][0]


def test_product_ids_are_pairs():
    # the pair (x, y) has id x * |Y_n| + y in every degree, so each
    # operator acts on both coordinates
    X, Y = boundary(2, 2), standard_simplex(1, 2)
    P, _, _ = product(X, Y)
    for n in range(3):
        for d in (-1, 1):
            for i in range(n + 1 if 0 <= n + d <= 2 else 0):
                x, y = X.operator(n, i, d), Y.operator(n, i, d)
                assert P.operator(n, i, d) == [
                    x[a] * Y.counts[n + d] + y[b]
                    for a in X.simplices(n) for b in Y.simplices(n)]


def test_classes_numbered_by_least_member():
    pairs = [(5, 3), (4, 1), (3, 0), (6, 6)]
    cls, least = classes(7, pairs)
    assert least == [0, 1, 2, 6]
    assert cls == [0, 1, 2, 0, 1, 0, 3]
    # the numbering does not depend on the order or orientation of pairs
    assert classes(7, [(b, a) for a, b in reversed(pairs)]) == (cls, least)


def test_classes_match_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        size = rng.randint(1, 12)
        pairs = [(rng.randrange(size), rng.randrange(size))
                 for _ in range(rng.randint(0, size))]
        block = [{a} for a in range(size)]
        for a, b in pairs:
            merged = block[a] | block[b]
            for c in merged:
                block[c] = merged
        least = sorted({min(b) for b in block})
        assert classes(size, pairs) == (
            [least.index(min(block[a])) for a in range(size)], least)


def test_pushout_identity_legs():
    X = boundary(2, 2)
    P, inj_b, inj_c = pushout(identity_map(X), identity_map(X))
    assert P.counts == X.counts
    assert inj_b.is_bijective()


def test_pushout_circle_from_two_arcs():
    # Delta[1] glued to Delta[1] along both endpoints is the circle
    cap = 2
    pts = discrete(2, cap)
    arc_b = standard_simplex(1, cap)
    arc_c = standard_simplex(1, cap)
    from relnerve.sset import SimplicialMap

    def endpoints_map(arc):
        comp = [[arc.id_of(0, (0,)), arc.id_of(0, (1,))]]
        for n in range(1, cap + 1):
            row = []
            for s in pts.simplices(n):
                cur = comp[0][s]   # discrete: id equals the point
                for d in range(n):
                    cur = arc.degens[d][0][cur]
                row.append(cur)
            comp.append(row)
        return SimplicialMap(pts, arc, comp)

    f = endpoints_map(arc_b)
    g = endpoints_map(arc_c)
    assert not f.validate() and not g.validate()
    P, _, _ = pushout(f, g)
    assert [len(P.nondegenerate(n)) for n in range(cap + 1)] == [2, 2, 0]
    from relnerve.homology import homology_table
    assert homology_table(P, 1) == [(1, []), (1, [])]


def test_pushout_along_identity_leg_gives_other_vertex():
    cap = 2
    D1 = standard_simplex(1, cap)
    J = walking_iso(cap)
    from relnerve.sset import SimplicialMap
    incl = SimplicialMap(D1, J, [[J.id_of(n, D1.key_of(n, t))
                                  for t in D1.simplices(n)]
                                 for n in range(cap + 1)])
    P, inj_b, inj_c = pushout(identity_map(D1), incl)
    assert P.counts == J.counts
    assert inj_c.is_bijective()


def test_exponential_interval_endomaps():
    D1 = standard_simplex(1, 3)
    E = Exponential(D1, D1, 1)
    assert E.counts[0] == 3      # the three monotone endomaps of [1]
    assert check_simplicial_identities(E).ok


def test_exponential_point_argument_recovers_target():
    Y = boundary(2, 3)
    E = Exponential(Y, standard_simplex(0, 3), 2)
    assert E.counts == Y.counts[:3]


def test_exponential_point_target_terminal():
    X = boundary(2, 3)
    E = Exponential(standard_simplex(0, 3), X, 2)
    assert E.counts == [1, 1, 1]


def test_exponential_validity_bound():
    D1 = standard_simplex(1, 2)
    with pytest.raises(TruncationError):
        Exponential(D1, D1, 2)     # 2 + 1 > 2


def test_truncation_commutes_with_product_and_pushout():
    X3 = boundary(2, 3)
    Y3 = standard_simplex(1, 3)
    P3 = product(X3, Y3)[0]
    P2 = product(restrict(X3, 2), restrict(Y3, 2))[0]
    assert restrict(P3, 2).counts == P2.counts
    Q3 = pushout(constant_map(Y3, X3, 0), identity_map(Y3))[0]
    Y2, X2 = restrict(Y3, 2), restrict(X3, 2)
    Q2 = pushout(constant_map(Y2, X2, 0), identity_map(Y2))[0]
    assert restrict(Q3, 2).counts == Q2.counts


def test_restrict_refuses_to_grow():
    X = standard_simplex(1, 2)
    with pytest.raises(TruncationError):
        restrict(X, 3)


def test_truncation_commutes_on_random_fixtures():
    import random
    from relnerve.randomgen import (SuiteBounds, random_sub_delta,
                                random_sub_delta_map)
    rng = random.Random(2)
    bounds = SuiteBounds()
    for _ in range(8):
        X = random_sub_delta(rng, bounds, 3)
        Y = random_sub_delta(rng, bounds, 3)
        hi = product(X, Y)[0]
        lo = product(restrict(X, 2), restrict(Y, 2))[0]
        assert restrict(hi, 2).counts == lo.counts
        hi_p = pushout(constant_map(X, Y, 0), identity_map(X))[0]
        X2, Y2 = restrict(X, 2), restrict(Y, 2)
        lo_p = pushout(constant_map(X2, Y2, 0), identity_map(X2))[0]
        assert restrict(hi_p, 2).counts == lo_p.counts


def test_enumerate_maps_counts_maps_to_point_and_interval():
    X = boundary(2, 2)
    pt = standard_simplex(0, 2)
    assert len(enumerate_maps(X, pt)) == 1
    # maps Delta[1] -> Delta[1] are the monotone endomaps
    D1 = standard_simplex(1, 2)
    assert len(enumerate_maps(D1, D1)) == 3


def _brute_force_maps(A, B, keep=None):
    """Every assignment to the nondegenerate simplices of A, extended to the
    degenerate ones by their EZ words, that passes ``keep`` and validates."""
    cells = [(n, s) for n in range(A.cap + 1) for s in A.nondegenerate(n)]
    found = set()
    for values in itertools.product(*[B.simplices(n) for n, _ in cells]):
        if keep is not None and not all(
                keep(n, s, b) for (n, s), b in zip(cells, values)):
            continue
        comp = [[None] * A.counts[n] for n in range(A.cap + 1)]
        for (n, s), b in zip(cells, values):
            comp[n][s] = b
        for n in range(A.cap + 1):
            for s in A.simplices(n):
                word, m, y = A.ez_table(n)[s]
                if word:
                    comp[n][s] = B.apply_word(m, comp[m][y], word)
        if SimplicialMap(A, B, comp).validate() == []:
            found.add(tuple(map(tuple, comp)))
    return found


def _search_pairs(cap, most):
    """Small (A, B) pairs whose brute force tries at most ``most``
    assignments: prisms, horns, a boundary, J and the nerve of Z/2 as
    domains; seeded random subcomplexes of simplices, a horn, a boundary,
    J and the nerves of Z/2 and Z/3 as codomains."""
    Z = [nerve(cyclic_group_category(k), cap) for k in (2, 3)]
    sources = [standard_simplex(i, cap).prism(m)[0]
               for m in range(3) for i in range(3) if 0 < m + i <= 2]
    sources += [horn(2, 0, cap), horn(2, 1, cap), boundary(2, cap),
                walking_iso(cap), Z[0]]
    rng = random.Random(8)
    targets = [random_sub_delta(rng, SuiteBounds(), cap) for _ in range(4)]
    targets += [horn(2, 1, cap), boundary(2, cap), walking_iso(cap)] + Z
    for A in sources:
        for B in targets:
            tries = 1
            for n in range(cap + 1):
                tries *= B.counts[n] ** len(A.nondegenerate(n))
            if tries <= most:
                yield A, B


def test_search_matches_brute_force():
    # enumerate_maps and first_map against every validating assignment,
    # with and without a candidate filter (a seeded random 20% of the
    # (degree, simplex, value) triples refused)
    pairs = nonempty = 0
    for cap in (2, 3):
        for A, B in _search_pairs(cap, 800):
            rng = random.Random(pairs)
            refused = {(n, s, b) for n in range(cap + 1)
                       for s in A.simplices(n) for b in B.simplices(n)
                       if rng.random() < 0.2}
            for keep in (None, lambda n, s, b: (n, s, b) not in refused):
                want = _brute_force_maps(A, B, keep)
                got = enumerate_maps(A, B, keep)
                assert len(got) == len(want)
                assert {tuple(map(tuple, t)) for t in got} == want
                first = first_map(A, B, keep)
                assert (first is None) == (not want)
                assert first is None or tuple(map(tuple, first)) in want
                nonempty += bool(want)
            pairs += 1
    assert pairs >= 60 and nonempty >= 60


class FullTableExponential(KeyedSSet):
    """The reference for ``Exponential``: the same mapping object keyed by
    full value tables, its faces and degeneracies by precomposing each
    table with the product map ``u x id_X`` between the prisms."""

    def __init__(self, Y, X, cap_out, admissible=None):
        self.prisms = [X.prism(n) for n in range(cap_out + 1)]
        self.deltas = [pr1.codomain for _, pr1, _ in self.prisms]
        tables = []
        for prism in self.prisms:
            filt = None if admissible is None else \
                functools.partial(admissible, prism)
            tables.append(sorted(tuple(map(tuple, t)) for t in
                                 enumerate_maps(prism[0], Y, filt)))

        def precomposition(n_from, n_to, vmap):
            u = delta_map(self.deltas[n_to], self.deltas[n_from], vmap).comp
            width = X.counts
            return [[u[d][s // width[d]] * width[d] + s % width[d]
                     for s in self.prisms[n_to][0].simplices(d)]
                    for d in range(X.cap + 1)]

        def precompose(table, comp):
            return tuple(tuple(row[t] for t in c)
                         for row, c in zip(table, comp))

        face_pms = [None] + [
            [precomposition(n, n - 1, coface_tuple(n, i))
             for i in range(n + 1)] for n in range(1, cap_out + 1)]
        degen_pms = [
            [precomposition(n, n + 1, codegen_tuple(n, i))
             for i in range(n + 1)] for n in range(cap_out)]
        super().__init__(cap_out, *keyed_tables(
            cap_out, tables, lambda n, i, d: lambda k: precompose(
                k, (face_pms if d < 0 else degen_pms)[n][i])))

    def table(self, n, s):
        return self.keys[n][s]


def assert_matches_full_tables(E, ref):
    """Equal ids, faces, degeneracies, ``table``, ``id_of`` and ``value``."""
    assert E.counts == ref.counts
    assert E.faces == ref.faces and E.degens == ref.degens
    for n in range(E.cap + 1):
        P = E.prisms[n][0]
        for s in E.simplices(n):
            table = ref.table(n, s)
            assert E.table(n, s) == table
            assert E.id_of(n, table) == s
            assert all(E.value(n, s, d, p) == table[d][p]
                       for d in range(P.cap + 1) for p in P.simplices(d))


def test_compact_keys_match_full_tables():
    # Y: the largest of a dozen seeded random subcomplexes of simplices
    # (up to 10 nondegenerate simplices, so filled triangles occur), J and
    # the nerve of Z/2; X: Delta[0..2], a horn, J and the nerve of Z/2,
    # each at the largest cap_out (at most 2) the validity bound allows
    cap = 3
    rng = random.Random(13)
    drawn = [random_sub_delta(rng, SuiteBounds(max_nondeg=10), cap)
             for _ in range(12)]
    targets = sorted(drawn, key=lambda Y: Y.counts)[-3:]
    targets += [walking_iso(cap), nerve(cyclic_group_category(2), cap)]
    args = [standard_simplex(i, cap) for i in range(3)]
    args += [horn(2, 1, cap), walking_iso(cap),
             nerve(cyclic_group_category(2), cap)]
    for Y in targets:
        for X in args:
            cap_out = min(2, cap - X.nondeg_dim())
            E = Exponential(Y, X, cap_out)
            assert_matches_full_tables(E, FullTableExponential(Y, X,
                                                               cap_out))
            assert check_simplicial_identities(E).ok


def by_hand(ref, target, cap, table_of):
    """Per degree, the ids in the reference ``target`` of the full tables
    ``table_of(n, d, t, T)`` gives from each full table T of ``ref``."""
    return [[target.index[n][tuple(
        tuple(table_of(n, d, t, ref.table(n, s)) for t in range(count))
        for d, count in enumerate(target.prisms[n][0].counts))]
        for s in ref.simplices(n)] for n in range(cap + 1)]


def test_kernel_maps_match_full_tables():
    # precompose, postcompose and transposed against the reference's full
    # tables, precomposed, postcomposed or swapped by hand, for the Y of
    # test_compact_keys_match_full_tables
    cap = 3
    rng = random.Random(13)
    drawn = [random_sub_delta(rng, SuiteBounds(max_nondeg=10), cap)
             for _ in range(12)]
    targets = sorted(drawn, key=lambda Y: Y.counts)[-3:]
    J = walking_iso(cap)
    others = [J, nerve(cyclic_group_category(2), cap)]
    D = [standard_simplex(i, cap) for i in range(3)]
    built = {}

    def exp(Y, X, cap_out):
        key = (id(Y), id(X), cap_out)
        if key not in built:
            built[key] = (Exponential(Y, X, cap_out),
                          FullTableExponential(Y, X, cap_out))
        return built[key]

    # along g: X' -> X, cofaces, codegeneracies, the horn's inclusion and
    # an edge of J
    maps = [delta_map(D[0], D[1], coface_tuple(1, 0)),
            delta_map(D[1], D[0], codegen_tuple(0, 0)),
            delta_map(D[1], D[2], coface_tuple(2, 0)),
            delta_map(D[2], D[1], codegen_tuple(1, 0)),
            delta_map(horn(2, 1, cap), D[2], (0, 1, 2)),
            delta_map(D[1], J, (0, 1))]
    for Y in targets + others:
        for g in maps:
            X, W = g.codomain, g.domain
            cap_out = min(2, cap - max(X.nondeg_dim(), W.nondeg_dim()))
            (E, ref), (E2, ref2) = exp(Y, X, cap_out), exp(Y, W, cap_out)

            def along_g(n, d, t, T):
                _, q1, q2 = ref2.prisms[n]
                return T[d][q1.comp[d][t] * X.counts[d]
                            + g.comp[d][q2.comp[d][t]]]

            assert E.precompose(g, E2).comp == \
                by_hand(ref, ref2, cap_out, along_g)
    # along f: Y -> Y', a seeded random map between subcomplexes
    for Y, Y2 in itertools.permutations(targets, 2):
        f = random_sub_delta_map(rng, Y, Y2)
        for X in D + [horn(2, 1, cap)]:
            cap_out = min(2, cap - X.nondeg_dim())
            (E, ref), (E2, ref2) = exp(Y, X, cap_out), exp(Y2, X, cap_out)
            assert E.postcompose(f, E2).comp == by_hand(
                ref, ref2, cap_out, lambda n, d, t, T: f.comp[d][T[d][t]])
    # the swap of the prism's factors, between [Delta[k] => Y] in degree
    # m and [Delta[m] => Y] in degree k
    for Y in targets + others:
        for k, m in itertools.product(range(3), repeat=2):
            if k + m > cap:
                continue
            (E, ref), (V, refV) = exp(Y, D[k], cap - k), exp(Y, D[m], cap - m)
            _, q1, q2 = refV.prisms[k]
            swapped = [refV.index[k][tuple(
                tuple(T[d][q2.comp[d][t] * D[k].counts[d] + q1.comp[d][t]]
                      for t in range(count))
                for d, count in enumerate(refV.prisms[k][0].counts))]
                for T in map(functools.partial(ref.table, m),
                             ref.simplices(m))]
            there = E.transposed(m, V)
            assert there == swapped
            back = V.transposed(k, E)
            assert [back[v] for v in there] == list(E.simplices(m))


def test_compact_keys_match_full_tables_over_the_base():
    # the over-base mapping objects of the marked fixtures and of the
    # naturally marked identity diagram of N([1]) over the arrow, with
    # their admissibility filter
    from conftest import identity_arrow_diagram
    from relnerve.fincat import arrow_category
    from relnerve.marked import (OverMappingSpace, mark_diagram,
                                 marked_rel_nerve, under_nerve_sharp)
    from relnerve.specio import parse_spec
    diagrams = [mark_diagram(identity_arrow_diagram(
        nerve(arrow_category(), 3), 3), "natural")]
    for name in ("interval_sharp", "interval_diagram_sharp"):
        with open(os.path.join(os.path.dirname(__file__), "fixtures",
                               name + ".rnspec")) as fh:
            diagrams.append(parse_spec(fh.read()).diagram)
    for FM in diagrams:
        OM, R = marked_rel_nerve(FM, 3)
        for d in range(FM.shape.n_objects):
            over, *_ = under_nerve_sharp(FM.shape, d, 3, NC=R.base_nerve)
            space = OverMappingSpace(over, OM, 1)
            ref = FullTableExponential(OM.sset, over.sset, 1,
                                       admissible=space._admissible)
            assert_matches_full_tables(space.sset, ref)


def test_exponential_adjunction_counts():
    # maps Z -> [X => Y] biject with maps Z x X -> Y, through two
    # independent code paths (mapping-object construction vs enumeration
    # over the product)
    Y = standard_simplex(1, 3)
    X = standard_simplex(1, 3)
    E = Exponential(Y, X, 1)
    for Z3 in (standard_simplex(1, 3), boundary(2, 3)):
        Z1 = restrict(Z3, 1)
        lhs = len(enumerate_maps(Z1, E))
        ZX = product(Z3, X)[0]
        rhs = len(enumerate_maps(ZX, Y))
        assert lhs == rhs


def test_classifying_map_picks_out_simplex():
    X = boundary(2, 2)
    for s in X.simplices(1):
        f = classifying_map(X, 1, s)
        assert not f.validate()
        D1 = f.domain
        assert f.comp[1][D1.id_of(1, (0, 1))] == s


def test_sub_sset_closed_inclusion():
    X = standard_simplex(2, 2)
    selected = [[X.id_of(0, (v,)) for v in (0, 1)],
                [X.id_of(1, k) for k in ((0, 0), (0, 1), (1, 1))],
                [X.id_of(2, k) for k in ((0, 0, 0), (0, 0, 1), (0, 1, 1),
                                         (1, 1, 1))]]
    S, inc = sub_sset(X, selected)
    assert S.counts == [2, 3, 4]
    assert not inc.validate()
    assert check_simplicial_identities(S).ok
