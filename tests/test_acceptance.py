"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and bounds are pinned here and nowhere else.
"""

import random
import time

import pytest

from conftest import (identity_arrow_diagram, span_diagram,
                      terminal_diagram)
from relnerve.certify import (check_bisimplicial, check_simplicial_identities,
                              cocartesian_edge, cocartesian_fibration,
                              verify_iso_map)
from relnerve.classic import grothendieck_classic
from relnerve.fincat import (arrow_category, constant_diagram,
                             cyclic_group_category, indiscrete_groupoid,
                             nerve, span_category)
from relnerve.hocolim import (bar_hocolim, colim_via_marked, counit_w2,
                              eta_unit, iota, iota_audit)
from relnerve.homology import homology_table, pi0
from relnerve.marked import (mark, mark_diagram, marked_rel_nerve,
                             under_nerve_sharp)
from relnerve.pathspace import (PathSpace, compare_relnerve_iso, fiber_at,
                                lurie_grothendieck, relative_nerve_direct,
                                simplicial_space)
from relnerve.randomgen import (SuiteBounds, random_cat_diagram,
                                random_sset_diagram)
from relnerve.sset import (Exponential, SimplicialMap, invert_bijection,
                           standard_simplex, walking_iso)

BOUNDS = SuiteBounds()
N_RANDOM = 100
N_THOMASON = 50
NCAP_COCART = 4


def _random_sset_diagrams(count, seed=0):
    rng = random.Random(seed)
    return [random_sset_diagram(rng, BOUNDS) for _ in range(count)]


def _named_fixtures(cap=3):
    """The curated fixture battery used by the fixture-quantified criteria."""
    fixtures = [("span", span_diagram(cap)),
                ("constant-point",
                 constant_diagram(span_category(), standard_simplex(0, cap))),
                ("terminal-interval",
                 terminal_diagram(standard_simplex(1, cap))),
                ("poset-nerves",
                 identity_arrow_diagram(nerve(arrow_category(), cap), cap)),
                ("group-nerves",
                 identity_arrow_diagram(nerve(cyclic_group_category(2), cap),
                                        cap)),
                ("groupoid-nerves",
                 identity_arrow_diagram(nerve(indiscrete_groupoid(2), cap),
                                        cap))]
    return fixtures


@pytest.fixture(scope="module")
def random_diagrams():
    return _random_sset_diagrams(N_RANDOM)


def test_criterion_01_identity_suite(random_diagrams):
    """100 seeded diagrams: the simplicial space, both relative nerves and
    the bar construction pass the full identity audit in under 60 seconds."""
    start = time.perf_counter()
    for F in random_diagrams:
        R = lurie_grothendieck(F, BOUNDS.cap)
        assert check_simplicial_identities(R.total).ok
        Rd = relative_nerve_direct(F, BOUNDS.cap)
        assert check_simplicial_identities(Rd.total).ok
        bar = bar_hocolim(F, BOUNDS.cap)
        assert check_simplicial_identities(bar.total).ok
        S = simplicial_space(F, 2, min(2, BOUNDS.cap - 2))
        assert check_bisimplicial(S.bisset).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "identity suite took %.1fs" % elapsed
    print("ACCEPTANCE 1 PASS: identity suite on %d random diagrams "
          "(%.1fs < 60s, cap=%d)" % (N_RANDOM, elapsed, BOUNDS.cap))


def test_criterion_02_c4_roundtrip(random_diagrams):
    """The explicit comparison pair between the two relative-nerve
    constructions is a degreewise isomorphism on the same 100 diagrams."""
    for F in random_diagrams:
        f, g, L, R = compare_relnerve_iso(F, BOUNDS.cap)
        cert = verify_iso_map(f, g)
        assert cert.ok, cert.line()
        for n in range(BOUNDS.cap + 1):
            for s in L.total.simplices(n):
                assert R.proj.comp[n][f.comp[n][s]] == L.proj.comp[n][s]
    print("ACCEPTANCE 2 PASS: comparison round-trip identity on %d random "
          "diagrams" % N_RANDOM)


def test_criterion_03_fiber_law(random_diagrams):
    """Every fiber of the relative nerve is certified isomorphic to the
    corresponding diagram value, on random and named fixtures."""
    checked = 0
    for F in random_diagrams:
        R = lurie_grothendieck(F, BOUNDS.cap)
        for c in range(F.shape.n_objects):
            fib, inc, f, g = fiber_at(R, c)
            assert verify_iso_map(f, g).ok
            checked += 1
    for name, F in _named_fixtures():
        R = lurie_grothendieck(F, 3)
        for c in range(F.shape.n_objects):
            fib, inc, f, g = fiber_at(R, c)
            assert verify_iso_map(f, g).ok
            checked += 1
    print("ACCEPTANCE 3 PASS: %d fibers certified isomorphic to their "
          "values" % checked)


def test_criterion_04_identity_string_path_spaces():
    """Over identity base strings the path space is certified isomorphic to
    the mapping object out of the standard simplex, for n <= 3."""
    cap = 4
    for Y in (standard_simplex(1, cap), walking_iso(cap)):
        F = terminal_diagram(Y)
        for n in range(4):
            key = (0,) * max(n, 1)
            ps = PathSpace(F, key, n, 1)
            E = Exponential(Y, standard_simplex(n, cap), 1)
            fwd = [[E.id_of(m, ps.exps[n].table(m, ps.sset.key_of(m, s)[n]))
                    for s in ps.sset.simplices(m)] for m in range(2)]
            f = SimplicialMap(ps.sset, E, fwd)
            assert not f.validate() and f.is_bijective()
            assert verify_iso_map(f, invert_bijection(f)).ok
    print("ACCEPTANCE 4 PASS: identity-string path spaces certified "
          "isomorphic to mapping objects for n <= 3")


def test_criterion_05_thomason_homology():
    """Integral homology of the bar construction equals that of the nerve of
    the classical construction, exactly, for 50 seeded Cat-valued diagrams
    and the span fixture."""
    rng = random.Random(1)
    cap = BOUNDS.cap
    for i in range(N_THOMASON):
        G = random_cat_diagram(rng, BOUNDS)
        NF = G.nerve_diagram(cap)
        bar = bar_hocolim(NF, cap)
        NG = nerve(grothendieck_classic(G).total, cap)
        assert homology_table(bar.total, cap - 1) == \
            homology_table(NG, cap - 1), "diagram %d" % i
    # the span fixture: both sides are circles
    C = span_category()
    from relnerve.fincat import CatDiagram, CatFunctor, FinCategory, \
        identity_functor
    one = FinCategory(1, [0], [0], [0], {(0, 0): 0})
    two = FinCategory(2, [0, 1], [0, 1], [0, 1], {(0, 0): 0, (1, 1): 1})
    collapse = CatFunctor(two, one, [0, 0], [0, 0])
    Fc = CatDiagram(C, [one, one, two],
                    [identity_functor(one), identity_functor(one),
                     identity_functor(two), collapse, collapse])
    bar = bar_hocolim(Fc.nerve_diagram(3), 3)
    NG = nerve(grothendieck_classic(Fc).total, 3)
    assert homology_table(bar.total, 1) == [(1, []), (1, [])]
    assert homology_table(NG, 1) == [(1, []), (1, [])]
    print("ACCEPTANCE 5 PASS: Thomason homology agreement on %d Cat-valued "
          "diagrams (k <= %d) and the span fixture" %
          (N_THOMASON, cap - 1))


def test_criterion_06_iota_audit(random_diagrams):
    """The bar-to-relative-nerve comparison passes ``iota_audit``
    (simplicial, projection compatible, fiberwise bijective, and injective
    when every transition map is) on the named fixtures and on 25 random
    diagrams, and is injective on the named fixtures."""
    for name, F in _named_fixtures():
        cap = F.cap
        io, bar, rel = iota(F, cap)
        assert iota_audit(io, bar, rel, F).ok, name
        assert io.is_injective(), name
    for F in random_diagrams[:25]:
        io, bar, rel = iota(F, BOUNDS.cap)
        assert iota_audit(io, bar, rel, F).ok
    print("ACCEPTANCE 6 PASS: comparison map injective on the named "
          "fixtures (as on every diagram with mono transition maps) and "
          "fiberwise bijective on all fixtures")


def test_criterion_07_cocartesian_audits():
    """Marked edges of naturally marked category-valued relative nerves are
    coCartesian at ncap=4; the projection is a coCartesian fibration at
    ncap=4; a non-invertible unmarked fiber edge fails at n=2."""
    cap = 4
    for value_cat in (arrow_category(), cyclic_group_category(2)):
        V = nerve(value_cat, cap)
        F = identity_arrow_diagram(V, cap)
        FM = mark_diagram(F, "natural")
        OM, R = marked_rel_nerve(FM, cap)
        assert cocartesian_fibration(OM.proj, NCAP_COCART).ok
        for e in sorted(OM.marked.marked):
            assert cocartesian_edge(OM.proj, e, NCAP_COCART).ok
    # negative control: the walking arrow in the fiber over the base edge
    V = nerve(arrow_category(), cap)
    F = identity_arrow_diagram(V, cap)
    FM = mark_diagram(F, "natural")
    OM, R = marked_rel_nerve(FM, cap)
    NC = R.base_nerve
    bad = None
    for s in OM.sset.simplices(1):
        sid, (b0, b1) = OM.sset.key_of(1, s)
        if NC.key_of(1, sid) == (1,) and b1 == V.id_of(1, (1,)):
            bad = s
            break
    assert bad is not None and bad not in OM.marked.marked
    cert = cocartesian_edge(OM.proj, bad, 2)
    assert not cert.ok and cert.bound == 2
    print("ACCEPTANCE 7 PASS: marked edges and projection coCartesian at "
          "ncap=%d; non-invertible unmarked edge FAILs at n=2"
          % NCAP_COCART)


def test_criterion_08_localization():
    """localize(sharp interval) is the walking isomorphism (certified);
    flat objects localize to themselves; sharp nerves of contractible
    groupoids have point homology up to cap-1."""
    from relnerve.marked import localize
    cap = 3
    D1 = standard_simplex(1, cap)
    loc = localize(mark(D1, "sharp"))
    assert loc.j_legs[0].is_bijective()
    assert verify_iso_map(loc.j_legs[0], invert_bijection(loc.j_legs[0])).ok
    assert loc.total.counts == walking_iso(cap).counts
    X = nerve(span_category(), cap)
    flat = localize(mark(X, "flat"))
    assert flat.total is X and flat.glued_edges == []
    for k in (2, 3):
        N = nerve(indiscrete_groupoid(k), cap)
        point = localize(mark(N, "sharp"))
        assert homology_table(point.total, cap - 1) == \
            [(1, [])] + [(0, [])] * (cap - 1)
    print("ACCEPTANCE 8 PASS: localization sends the sharp interval to the "
          "walking isomorphism, fixes flat objects, and contracts sharp "
          "contractible-groupoid nerves")


def test_criterion_09_colimit_composite():
    """The degreewise colimit agrees with the localized marked
    colimit on every fixture: exactly when nothing is glued, and through
    the certified retraction collapsing the glued isomorphisms otherwise."""
    cap = 3
    fixtures = [("constant", terminal_diagram(standard_simplex(1, cap))),
                ("span", span_diagram(cap)),
                ("poset-nerves",
                 identity_arrow_diagram(nerve(arrow_category(), cap), cap)),
                ("groupoid-nerves",
                 identity_arrow_diagram(nerve(indiscrete_groupoid(2), cap),
                                        cap)),
                ("group-nerves",
                 identity_arrow_diagram(nerve(cyclic_group_category(2), cap),
                                        cap))]
    modes = {}
    for name, F in fixtures:
        cc = colim_via_marked(F)
        assert cc.ok, (name, cc.detail)
        modes[name] = cc.mode
        if cc.mode == "retract":
            assert homology_table(cc.colimit, cap - 1) == \
                homology_table(cc.composite, cap - 1), name
            assert len(pi0(cc.colimit)) == len(pi0(cc.composite)), name
    assert modes["span"] == "iso" and modes["poset-nerves"] == "iso"
    assert modes["groupoid-nerves"] == "retract"
    print("ACCEPTANCE 9 PASS: colimit composite certified on all fixtures "
          "(%s)" % ", ".join("%s=%s" % kv for kv in sorted(modes.items())))


def test_criterion_10_unit_counit_shadows():
    """The unit composed with the fiber isomorphism is the identity; the
    counit is projection-compatible and vertex-surjective on fibers."""
    cap = 3
    for value_cat in (arrow_category(), cyclic_group_category(2)):
        V = nerve(value_cat, cap)
        F = identity_arrow_diagram(V, cap)
        FM = mark_diagram(F, "natural")
        C = arrow_category()
        for d in (0, 1):
            eta, space, OM, R = eta_unit(FM, d, 1)
            assert eta.validate() == []
            over, Ucat, forget, objs, keys = under_nerve_sharp(
                C, d, cap, NC=R.base_nerve)
            NU = space.X.sset
            idvert = NU.id_of(0, (objs.index(C.identity[d]),))
            for n in range(2):
                dn = space.deltas[n]
                idn = dn.id_of(n, tuple(range(n + 1)))
                for x in F.values[d].simplices(n):
                    table = space.table(n, eta.comp[n][x])
                    cur = idvert
                    deg = 0
                    while deg < n:
                        cur = NU.degens[deg][0][cur]
                        deg += 1
                    sid, beta = OM.sset.key_of(
                        n, table[n][idn * NU.counts[n] + cur])
                    assert beta[n] == x
        OM, R = marked_rel_nerve(FM, cap)
        w2, bar, rect = counit_w2(OM, 1)
        assert w2.validate() == []
        assert all(OM.proj.comp[n][w2.comp[n][s]] == bar.proj.comp[n][s]
                   for n in range(2) for s in bar.total.simplices(n))
        assert set(w2.comp[0]) == set(range(OM.sset.counts[0]))
    print("ACCEPTANCE 10 PASS: unit composes to the identity on values; "
          "counit is over the base and vertex-surjective on fibers")


def test_criterion_11_determinism():
    """The random suite with a fixed seed produces byte-identical reports."""
    from relnerve.cli import run_random_suite
    from relnerve.specio import Report
    texts = []
    for _ in range(2):
        rep = Report()
        fails = run_random_suite(3, 3, BOUNDS, rep)
        assert fails == 0
        texts.append(rep.text())
    assert texts[0] == texts[1]
    print("ACCEPTANCE 11 PASS: fixed-seed suite reports are byte-identical")
