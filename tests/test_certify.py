import itertools
import random

import pytest

from relnerve.certify import (check_bisimplicial,
                              check_simplicial_identities, cocartesian_edge,
                              cocartesian_fibration, inner_horn_lifts,
                              verify_iso_map)
from relnerve.fincat import (CatDiagram, CatFunctor, arrow_category,
                             cyclic_group_category, identity_functor, nerve,
                             nerve_map, span_category)
from relnerve.marked import mark_diagram, marked_rel_nerve
from relnerve.randomgen import SuiteBounds, random_cat_diagram
from relnerve.sset import (SimplicialMap, SSetError, TruncationError,
                           TruncSSet, boundary, constant_map, horn,
                           identity_map, pushout, standard_simplex,
                           walking_iso)


def test_generated_objects_pass_audit():
    for X in (standard_simplex(3, 3), boundary(2, 3), horn(2, 1, 3),
              walking_iso(3)):
        assert check_simplicial_identities(X).ok


def test_corrupted_face_table_fails_with_witness():
    D = standard_simplex(1, 2)
    faces = [None] + [[list(t) for t in D.faces[n]] for n in range(1, 3)]
    degens = [[list(t) for t in D.degens[n]] for n in range(2)]
    faces[2][1][D.id_of(2, (0, 0, 1))] = D.id_of(1, (1, 1))
    bad = TruncSSet(2, D.counts, faces, degens)
    cert = check_simplicial_identities(bad)
    assert not cert.ok and cert.witness is not None


def test_verify_iso_identity_and_swap():
    X = boundary(2, 2)
    ident = identity_map(X)
    assert verify_iso_map(ident, ident).ok
    # swapping two vertices against the identity must fail
    swap0 = list(range(X.counts[0]))
    swap0[0], swap0[1] = swap0[1], swap0[0]
    cheat = SimplicialMap(X, X, [swap0] + [list(range(X.counts[n]))
                                          for n in range(1, 3)])
    assert not verify_iso_map(cheat, ident).ok


def test_nerve_over_point_has_unique_inner_lifts():
    C = cyclic_group_category(2)
    N = nerve(C, 3)
    pt = standard_simplex(0, 3)
    p = constant_map(N, pt, 0)
    cert = inner_horn_lifts(p, 3)
    assert cert.ok


def test_horn_itself_fails_at_its_missing_face():
    H = horn(2, 1, 2)
    pt = standard_simplex(0, 2)
    p = constant_map(H, pt, 0)
    cert = inner_horn_lifts(p, 2)
    assert not cert.ok
    assert cert.witness[0] == 2 and cert.witness[1] == 1


def test_relative_nerve_of_category_diagram_is_inner_fibrant():
    from relnerve.pathspace import lurie_grothendieck
    C = arrow_category()
    V = cyclic_group_category(2)
    F = CatDiagram(C, [V, V], [identity_functor(V)] * 3)
    R = lurie_grothendieck(F.nerve_diagram(3), 3)
    assert inner_horn_lifts(R.proj, 3).ok


def test_degenerate_edge_over_nerve_is_cocartesian():
    from relnerve.pathspace import lurie_grothendieck
    C = arrow_category()
    V = cyclic_group_category(2)
    F = CatDiagram(C, [V, V], [identity_functor(V)] * 3)
    R = lurie_grothendieck(F.nerve_diagram(3), 3)
    v = 0
    e = R.total.degens[0][0][v]
    assert cocartesian_edge(R.proj, e, 3).ok


def test_cocartesian_audit_agrees_with_categorical_criterion():
    # independent oracle: an arrow of the classical construction is
    # coCartesian iff its fiber component is invertible
    from relnerve.classic import classical_cocartesian, grothendieck_classic
    C = arrow_category()
    A = arrow_category()
    Fv = CatDiagram(C, [A, A], [identity_functor(A)] * 3)
    G = grothendieck_classic(Fv)
    NG = nerve(G.total, 3)
    Np = nerve_map(G.proj, 3, NG, nerve(C, 3))
    for mi, (f, p) in enumerate(G.morphisms):
        want = classical_cocartesian(G, mi)
        edge = NG.id_of(1, (mi,))
        got = cocartesian_edge(Np, edge, 3).ok
        assert got == want


def test_cocartesian_fibration_constant_diagram():
    from relnerve.pathspace import lurie_grothendieck
    from relnerve.fincat import constant_diagram
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    R = lurie_grothendieck(F, 3)
    assert cocartesian_fibration(R.proj, 3).ok


def test_fibration_fails_without_lift():
    # a projection with a missing coCartesian lift over the nonidentity edge:
    # the horn of an inner composition is not fibrant over Delta[1]
    H = horn(2, 1, 2)
    D1 = standard_simplex(1, 2)
    # map vertices 0,1 -> 0; 2 -> 1; edges accordingly
    vmap = {0: 0, 1: 0, 2: 1}
    comp = []
    for n in range(3):
        row = []
        for s in H.simplices(n):
            key = H.key_of(n, s)
            row.append(D1.id_of(n, tuple(vmap[v] for v in key)))
        comp.append(row)
    p = SimplicialMap(H, D1, comp)
    assert not p.validate()
    cert = cocartesian_fibration(p, 2)
    assert not cert.ok


def test_bisimplicial_audit_on_simplicial_space(span3):
    from relnerve.pathspace import simplicial_space
    S = simplicial_space(span3, 2, 1)
    assert check_bisimplicial(S.bisset).ok


def test_certificates_are_replayable():
    X = standard_simplex(2, 2)
    a = check_simplicial_identities(X)
    b = check_simplicial_identities(X)
    assert a.verdict == b.verdict == "PASS" and a.bound == b.bound


def _interval_over_nerve(cap):
    """The relative nerve of the arrow diagram C2 -> C2, a cap-``cap``
    total space over N([1])."""
    from relnerve.pathspace import lurie_grothendieck
    V = cyclic_group_category(2)
    F = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
    return lurie_grothendieck(F.nerve_diagram(cap), cap)


def test_cocartesian_edge_refuses_ncap_above_the_cap():
    R = _interval_over_nerve(3)
    with pytest.raises(TruncationError):
        cocartesian_edge(R.proj, 0, 5)


@pytest.mark.parametrize("e", [10 ** 6, -1])
def test_cocartesian_edge_refuses_an_edge_outside_x1(e):
    R = _interval_over_nerve(3)
    with pytest.raises(SSetError):
        cocartesian_edge(R.proj, e, 3)


# -- differential: the audits against a brute-force reference ----------------

def _reference_squares(p, n, k, edge=None):
    """Every (n, k) square of p by brute force: horns from all of
    ``X_{n-1}^n``, bases from all of ``S_n``, lifts from all of ``X_n``.
    With ``edge``, facets 2.. must have it as their 01-edge.  Returns the
    number of squares checked, and the first one with no lift or None."""
    X, S = p.domain, p.codomain
    idxs = [i for i in range(n + 1) if i != k]

    def edge_01(y):                       # drop the vertices n-1, .., 2
        for v in range(n - 1, 1, -1):
            y = X.faces[v][v][y]
        return y

    checked = 0
    for ys in itertools.product(X.simplices(n - 1), repeat=n):
        h = dict(zip(idxs, ys))
        if any(X.faces[n - 1][i][h[j]] != X.faces[n - 1][j - 1][h[i]]
               for i in idxs for j in idxs if i < j):
            continue
        if edge is not None and any(edge_01(h[j]) != edge
                                    for j in idxs if j >= 2):
            continue
        for b in S.simplices(n):
            if any(S.faces[n][i][b] != p.comp[n - 1][h[i]] for i in idxs):
                continue
            checked += 1
            if not any(p.comp[n][x] == b and
                       all(X.faces[n][i][x] == h[i] for i in idxs)
                       for x in X.simplices(n)):
                return checked, (sorted(h.items()), b)
    return checked, None


def _reference_inner(p, ncap):
    checked = 0
    for n in range(2, ncap + 1):
        for k in range(1, n):
            count, bad = _reference_squares(p, n, k)
            if bad:
                return "FAIL", ncap, (n, k) + bad
            checked += count
    return "PASS", ncap, ("squares", checked)


def _reference_edge(p, e, ncap):
    checked = 0
    for n in range(2, ncap + 1):
        count, bad = _reference_squares(p, n, 0, edge=e)
        if bad:
            return "FAIL", n, (n,) + bad
        checked += count
    return "PASS", ncap, ("squares", checked)


def _differential_cases():
    """(name, p, ncap), freshly built, on small objects: the nerve of C2
    over itself and over a point, the horn Lambda^2_1 over Delta[1] and
    over a point, the relative nerve of the span diagram over N(span), and
    two copies of Delta[2] glued along their boundary, over itself and
    over a point: the inner horn of the boundary has two fillers and, over
    itself, two bases; and the nerve of the span a <- c -> b over N([1]),
    c over 0: neither edge out of c over the arrow is coCartesian."""
    from relnerve.pathspace import lurie_grothendieck
    from conftest import span_diagram
    N = nerve(cyclic_group_category(2), 4)
    H = horn(2, 1, 4)
    D1 = standard_simplex(1, 4)
    vmap = (0, 0, 1)
    to_d1 = SimplicialMap(H, D1, [
        [D1.id_of(n, tuple(vmap[v] for v in H.key_of(n, s)))
         for s in H.simplices(n)] for n in range(5)])
    R = lurie_grothendieck(span_diagram(3), 3)
    B, D2 = boundary(2, 3), standard_simplex(2, 3)
    inc = SimplicialMap(B, D2, [[D2.id_of(n, B.key_of(n, s))
                                 for s in B.simplices(n)] for n in range(4)])
    G = pushout(inc, inc)[0]
    # id_a, id_b -> id_1; id_c -> id_0; p, q -> the arrow 0 -> 1
    to_arrow = CatFunctor(span_category(), arrow_category(), [1, 1, 0],
                          [2, 2, 0, 1, 1])
    return [("nerve-c2", identity_map(N), 4),
            ("nerve-c2-point", constant_map(N, standard_simplex(0, 4), 0), 4),
            ("horn", to_d1, 4),
            ("horn-point", constant_map(H, standard_simplex(0, 4), 0), 4),
            ("span", R.proj, 3),
            ("glued", identity_map(G), 3),
            ("glued-point", constant_map(G, standard_simplex(0, 3), 0), 3),
            ("span-over-arrow", nerve_map(to_arrow, 3), 3)]


def _corrupted(case, rng, count):
    """``count`` fresh copies of a case's p, each with one entry of p or of
    a face table of its domain moved to another simplex; the corruption
    comes before any audit caches a face lookup."""
    for _ in range(count):
        name, p, ncap = _differential_cases()[case]
        X, S = p.domain, p.codomain
        tables = [(p.comp[n], S.counts[n]) for n in range(ncap + 1)]
        tables += [(X.faces[n][i], X.counts[n - 1])
                   for n in range(1, ncap + 1) for i in range(n + 1)]
        table, size = rng.choice([(t, m) for t, m in tables if m > 1])
        s = rng.randrange(len(table))
        table[s] = (table[s] + rng.randrange(1, size)) % size
        yield p


@pytest.mark.parametrize("case", range(8))
def test_horn_audits_match_brute_force(case):
    # verdict, bound and witness, the ("squares", n) count included, on the
    # object and on copies with one corrupted table entry each
    name, p, ncap = _differential_cases()[case]
    verdicts = set()
    for p in [p] + list(_corrupted(case, random.Random(case), 8)):
        c = inner_horn_lifts(p, ncap)
        assert (c.verdict, c.bound, c.witness) == _reference_inner(p, ncap)
        verdicts.add(c.verdict)
        for e in p.domain.simplices(1):
            c = cocartesian_edge(p, e, ncap)
            assert (c.verdict, c.bound, c.witness) == \
                _reference_edge(p, e, ncap), (name, e)
            verdicts.add(c.verdict)
    assert verdicts == {"PASS", "FAIL"}, name


def _reference_fibration(p, ncap, inner=None, cocartesian=None):
    """The fibration audit by brute force: the inner audit, then for each
    base edge f and vertex xbar over its source, an edge out of xbar over f
    that is coCartesian.  ``inner``, a (verdict, bound, witness) triple, and
    the predicate ``cocartesian(e)`` stand in for ``_reference_inner`` and
    ``_reference_edge`` where given."""
    inner = inner or _reference_inner(p, ncap)
    if inner[0] == "FAIL":
        return ("inner-horn-lifts",) + inner
    cocartesian = cocartesian or (
        lambda e: _reference_edge(p, e, ncap)[0] == "PASS")
    X, S = p.domain, p.codomain
    for f in S.simplices(1):
        for xbar in X.simplices(0):
            if p.comp[0][xbar] == S.faces[1][1][f] and not any(
                    X.faces[1][1][e] == xbar and p.comp[1][e] == f
                    and cocartesian(e) for e in X.simplices(1)):
                return ("cocartesian-fibration", "FAIL", ncap,
                        ("no-lift", f, xbar))
    return "cocartesian-fibration", "PASS", ncap, None


def test_fibration_audit_matches_brute_force():
    # kind, verdict, bound and witness on every case and on copies with
    # one corrupted table entry each; a PASS, an inner-horn FAIL and a
    # no-lift FAIL all occur
    seen = set()
    for case in range(8):
        name, p, ncap = _differential_cases()[case]
        for p in [p] + list(_corrupted(case, random.Random(100 + case), 8)):
            c = cocartesian_fibration(p, ncap)
            got = (c.kind, c.verdict, c.bound, c.witness)
            assert got == _reference_fibration(p, ncap), name
            seen.add((c.kind, c.verdict))
    # the only FAIL of the fibration's own kind is a no-lift
    assert seen == {("cocartesian-fibration", "PASS"),
                    ("inner-horn-lifts", "FAIL"),
                    ("cocartesian-fibration", "FAIL")}


def test_fibration_audit_blames_the_edges_the_edge_audit_fails():
    # on the naturally marked relative nerves of random Cat diagrams the
    # edges that pass the edge audit are the marked ones, and the fibration
    # audit is the one read off them; blaming the 01-edge of the wrong
    # facet of an unlifted square changes some of its verdicts
    for s in range(30):
        G = random_cat_diagram(random.Random(s), SuiteBounds())
        OM, _ = marked_rel_nerve(mark_diagram(G.nerve_diagram(4), "natural"),
                                 4)
        p = OM.proj
        for ncap in (2, 3):
            good = {e for e in p.domain.simplices(1)
                    if cocartesian_edge(p, e, ncap).ok}
            assert good == OM.marked.marked, (s, ncap)
            c, i = cocartesian_fibration(p, ncap), inner_horn_lifts(p, ncap)
            assert (c.kind, c.verdict, c.bound, c.witness) == \
                _reference_fibration(p, ncap, (i.verdict, i.bound, i.witness),
                                     good.__contains__), (s, ncap)
