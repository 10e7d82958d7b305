from conftest import (arrow_diagram, identity_arrow_diagram,
                      terminal_diagram)
from relnerve.certify import check_simplicial_identities, verify_iso_map
from relnerve.fincat import (arrow_category, constant_diagram,
                             cyclic_group_category, fiber_onto_value,
                             indiscrete_groupoid, nerve, span_category,
                             terminal_category)
from relnerve.hocolim import (bar_hocolim, colim_via_marked, counit_w2,
                              eta_unit, hocolim_qcat, iota,
                              iota_fiber_bijective)
from relnerve.homology import homology_table, pi0
from relnerve.marked import (OverMarked, mark, mark_diagram, marked_rel_nerve)
from relnerve.sset import (boundary, constant_map, discrete, identity_map,
                           standard_simplex)


def test_bar_constant_is_base_nerve():
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    bar = bar_hocolim(F, 3)
    assert bar.total.counts == nerve(C, 3).counts


def test_bar_over_terminal_is_value():
    X = boundary(2, 3)
    bar = bar_hocolim(terminal_diagram(X), 3)
    assert bar.total.counts == X.counts


def test_bar_span_is_circle(span3):
    bar = bar_hocolim(span3, 3)
    assert bar.total.counts[0] == 4
    assert len(bar.total.nondegenerate(1)) == 4
    assert check_simplicial_identities(bar.total).ok
    assert homology_table(bar.total, 1) == [(1, []), (1, [])]


def test_bar_identity_audit_on_groupoid_diagram():
    V = nerve(cyclic_group_category(2), 3)
    F = identity_arrow_diagram(V, 3)
    bar = bar_hocolim(F, 3)
    assert check_simplicial_identities(bar.total).ok


def test_bar_marking_rule():
    V = nerve(arrow_category(), 3)
    F = identity_arrow_diagram(V, 3)
    FM = mark_diagram(F, "natural")
    bar = bar_hocolim(FM, 3)
    C = arrow_category()
    for s in bar.total.simplices(1):
        sid, x = bar.total.key_of(1, s)
        o0 = 0 if bar.base_nerve.key_of(1, sid)[0] in (0, 1) else 1
        # marked iff the fiber part is marked in the value at sigma(0)
        assert (s in bar.marked) == (x in FM.values[o0].marked)


def test_bar_fibers_are_values(span3):
    for bar in (bar_hocolim(span3, 3),
                bar_hocolim(mark_diagram(span3, "natural"), 3)):
        for c in range(3):
            fib, _, f, g = fiber_onto_value(
                bar, c, bar.diagram.underlying().values[c], lambda n, x: x,
                lambda n, x: x)
            assert verify_iso_map(f, g).ok
            assert f.codomain.counts == span3.values[c].counts


def test_iota_vertexwise_is_identity_pairing(span3):
    io, bar, rel = iota(span3, 3)
    for s in bar.total.simplices(0):
        sid, x = bar.total.key_of(0, s)
        tid, beta = rel.total.key_of(0, io.comp[0][s])
        assert tid == sid and beta == (x,)


def test_iota_on_constant_diagram_is_bijective():
    C = span_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    io, bar, rel = iota(F, 3)
    assert io.is_bijective()


def test_iota_audit_span(span3):
    io, bar, rel = iota(span3, 3)
    assert io.validate() == []
    assert io.is_injective()
    assert all(rel.proj.comp[n][io.comp[n][s]] == bar.proj.comp[n][s]
               for n in range(4) for s in bar.total.simplices(n))
    assert iota_fiber_bijective(io, bar, rel, span3)


def test_iota_fiber_bijective_even_with_collapsing_maps():
    # transports that collapse simplices break global injectivity but the
    # fiberwise comparison remains an isomorphism
    X0 = standard_simplex(1, 3)
    X1 = standard_simplex(0, 3)
    F = arrow_diagram(X0, X1, constant_map(X0, X1, 0))
    io, bar, rel = iota(F, 3)
    assert io.validate() == []
    assert iota_fiber_bijective(io, bar, rel, F)


def test_eta_unit_identity_composite():
    cap = 3
    V = nerve(arrow_category(), cap)
    F = identity_arrow_diagram(V, cap)
    FM = mark_diagram(F, "natural")
    for d in (0, 1):
        eta, space, OM, R = eta_unit(FM, d, 1)
        assert eta.validate() == []
        assert eta.is_injective()
        NU = space.X.sset
        from relnerve.marked import under_nerve_sharp
        over, Ucat, forget, objs, keys = under_nerve_sharp(
            arrow_category(), d, cap, NC=R.base_nerve)
        idvert = NU.id_of(0, (objs.index(arrow_category().identity[d]),))
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
                prism_id = idn * NU.counts[n] + cur
                sid, beta = OM.sset.key_of(n, table[n][prism_id])
                assert beta[n] == x


def test_eta_vertices_injective_at_span_apex():
    from conftest import span_diagram
    F = span_diagram(3)
    FM = mark_diagram(F, "flat")
    eta, space, OM, R = eta_unit(FM, 2, 0)
    assert eta.validate() == []
    assert len(set(eta.comp[0])) == len(eta.comp[0])


def test_eta_over_terminal_is_fiber_iso():
    T = terminal_category()
    V = nerve(arrow_category(), 3)
    F = terminal_diagram(V)
    FM = mark_diagram(F, "natural")
    eta, space, OM, R = eta_unit(FM, 0, 1)
    assert eta.is_bijective()


def test_w2_counit_audit():
    cap = 3
    V = nerve(arrow_category(), cap)
    F = identity_arrow_diagram(V, cap)
    FM = mark_diagram(F, "natural")
    OM, R = marked_rel_nerve(FM, cap)
    w2, bar, rect = counit_w2(OM, 1)
    assert w2.validate() == []
    assert all(OM.proj.comp[n][w2.comp[n][s]] == bar.proj.comp[n][s]
               for n in range(2) for s in bar.total.simplices(n))
    # vertex-surjective on every fiber
    assert set(w2.comp[0]) == set(range(OM.sset.counts[0]))


def test_w2_counit_on_random_cat_diagrams():
    # with the degree-by-degree map search, items 34, 39 and 41 took
    # 20-65 s each
    import random
    from relnerve.randomgen import SuiteBounds, random_cat_diagram
    rng = random.Random(2)
    items = [random_cat_diagram(rng, SuiteBounds()) for _ in range(42)]
    for k in (33, 34, 35, 39, 41):
        FM = mark_diagram(items[k].nerve_diagram(3), "natural")
        OM, R = marked_rel_nerve(FM, 3)
        w2, bar, rect = counit_w2(OM, 1)
        assert w2.validate() == []
        assert all(OM.proj.comp[n][w2.comp[n][s]] == bar.proj.comp[n][s]
                   for n in range(2) for s in bar.total.simplices(n))


def test_w2_degreewise_surjective_on_span():
    from conftest import span_diagram
    F = span_diagram(3)
    FM = mark_diagram(F, "flat")     # discrete values: flat is the natural
    OM, R = marked_rel_nerve(FM, 3)
    w2, bar, rect = counit_w2(OM, 1)
    for n in range(2):
        assert set(w2.comp[n]) == set(range(OM.sset.counts[n]))


def test_eta_bijective_at_full_depth():
    # with the output cap at its validity bound the unit is bijective onto
    # the rectified fiber for nerve-valued fixtures
    cap = 3
    V = nerve(arrow_category(), cap)
    F = identity_arrow_diagram(V, cap)
    FM = mark_diagram(F, "natural")
    eta, space, OM, R = eta_unit(FM, 0, 2)
    assert eta.validate() == []
    assert eta.is_bijective()


def test_w2_collapses_base_to_identity():
    C = arrow_category()
    NC = nerve(C, 3)
    idbase = OverMarked(mark(NC, "sharp"), identity_map(NC), NC, C)
    w2, bar, rect = counit_w2(idbase, 1)
    assert w2.is_bijective()


def test_w2_terminal_evaluation_vertex_iso():
    T = terminal_category()
    NT = nerve(T, 3)
    X = nerve(arrow_category(), 3)
    xov = OverMarked(mark(X, "natural"), constant_map(X, NT, 0), NT, T)
    w2, bar, rect = counit_w2(xov, 1)
    assert sorted(w2.comp[0]) == list(range(X.counts[0]))


def test_hocolim_qcat_span_is_circle_up_to_homology(span3):
    H = hocolim_qcat(span3, 3)
    assert homology_table(H.total, 2) == [(1, []), (1, []), (0, [])]
    assert len(pi0(H.total)) == 1


def test_hocolim_qcat_constant_point_is_localized_base():
    # over the walking arrow the answer is contractible: the transport edge
    # is marked and gets a walking isomorphism glued on
    C = arrow_category()
    F = constant_diagram(C, standard_simplex(0, 3))
    H = hocolim_qcat(F, 3)
    assert len(H.localization.glued_edges) == 1
    assert homology_table(H.total, 2) == [(1, []), (0, []), (0, [])]


def test_hocolim_matches_classical_pi0_for_groupoid_diagram():
    V = nerve(cyclic_group_category(2), 3)
    F = identity_arrow_diagram(V, 3)
    H = hocolim_qcat(F, 3)
    bar = bar_hocolim(F, 3)
    assert len(pi0(H.total)) == len(pi0(bar.total))


def test_colim_via_marked_constant():
    T = terminal_category()
    X = boundary(2, 3)
    cc = colim_via_marked(terminal_diagram(X))
    assert cc.ok and cc.mode == "iso"
    assert cc.colimit.counts == X.counts


def test_colim_via_marked_span_collapses_to_point(span3):
    cc = colim_via_marked(span3)
    assert cc.ok and cc.mode == "iso"
    assert cc.colimit.counts == [1, 1, 1, 1]


def test_colim_via_marked_empty_apex_two_points():
    from relnerve.fincat import SSetDiagram
    C = span_category()
    cap = 2
    pt_a = standard_simplex(0, cap)
    pt_b = standard_simplex(0, cap)
    empty = discrete(0, cap)
    from relnerve.sset import SimplicialMap
    silent = lambda tgt: SimplicialMap(empty, tgt, [[], [], []])
    F = SSetDiagram(C, [pt_a, pt_b, empty],
                    [identity_map(pt_a), identity_map(pt_b),
                     identity_map(empty), silent(pt_a), silent(pt_b)])
    cc = colim_via_marked(F)
    assert cc.ok and cc.colimit.counts[0] == 2


def test_colim_via_marked_groupoid_retract():
    V = nerve(indiscrete_groupoid(2), 3)
    F = identity_arrow_diagram(V, 3)
    cc = colim_via_marked(F)
    assert cc.ok and cc.mode == "retract"
    assert homology_table(cc.colimit, 2) == homology_table(cc.composite, 2)
    assert len(pi0(cc.colimit)) == len(pi0(cc.composite))


def test_colim_marked_counts_on_span(span3):
    # the degreewise colimit of the span is a point in every degree
    from relnerve.marked import colim_marked
    QM, qmaps_m = colim_marked(mark_diagram(span3, "flat"))
    assert QM.sset.counts == [1, 1, 1, 1]


def test_bar_and_relnerve_share_homology_on_random_diagrams():
    # the comparison map is a total-space equivalence: exact integral
    # homology of the two models agrees on seeded random diagrams
    import random
    from relnerve.pathspace import lurie_grothendieck
    from relnerve.randomgen import SuiteBounds, random_sset_diagram
    rng = random.Random(11)
    for _ in range(10):
        F = random_sset_diagram(rng, SuiteBounds())
        bar = bar_hocolim(F, 4)
        R = lurie_grothendieck(F, 4)
        assert homology_table(bar.total, 3) == homology_table(R.total, 3)
