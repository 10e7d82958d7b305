import random

import pytest

from conftest import identity_arrow_diagram
from relnerve.certify import (check_simplicial_identities, cocartesian_edge,
                              cocartesian_fibration, verify_iso_map)
from relnerve.fincat import (arrow_category, chain_category,
                             cyclic_group_category, indiscrete_groupoid,
                             nerve, span_category)
from relnerve.homology import homology_table
from relnerve.marked import (EquivalenceWitness, MarkError, MarkedSSet,
                             OverMarked, OverMappingSpace, _witness_ok,
                             degenerate_edges, equivalences, extend_along_J,
                             localize, mark, mark_diagram, marked_rel_nerve,
                             rectify_right, under_nerve_sharp,
                             unstraighten_at, unstraighten_diagram)
from relnerve.randomgen import SuiteBounds, random_sub_delta
from relnerve.sset import (Exponential, SimplicialMap, classifying_map,
                           compose, constant_map, delta_map, disjoint_union,
                           identity_map, invert_bijection, pushout,
                           standard_simplex, sub_sset, walking_iso)


def test_flat_marks_exactly_degenerate_edges():
    D1 = standard_simplex(1, 2)
    M = mark(D1, "flat")
    assert M.marked == degenerate_edges(D1)
    assert D1.id_of(1, (0, 1)) not in M.marked


def test_sharp_marks_everything():
    D1 = standard_simplex(1, 2)
    assert mark(D1, "sharp").marked == frozenset(range(D1.counts[1]))


def test_natural_marking_of_walking_iso():
    J = walking_iso(3)
    M = mark(J, "natural")
    deg = J.degenerate_flags(1)
    assert sorted(e for e in M.marked if not deg[e]) == \
        [J.id_of(1, (0, 1)), J.id_of(1, (1, 0))]


def test_natural_marking_of_interval_is_flat():
    D1 = standard_simplex(1, 2)
    assert mark(D1, "natural").marked == degenerate_edges(D1)


def test_natural_marking_needs_two_truncation():
    with pytest.raises(MarkError):
        mark(standard_simplex(1, 1), "natural")


def test_degenerate_closure_enforced():
    D1 = standard_simplex(1, 2)
    with pytest.raises(MarkError):
        MarkedSSet(D1, frozenset())


def test_groupoid_nerve_is_all_equivalences():
    for C in (cyclic_group_category(2), indiscrete_groupoid(2)):
        N = nerve(C, 2)
        assert set(equivalences(N)) == set(N.simplices(1))


def test_poset_nerve_has_only_degenerate_equivalences():
    N = nerve(chain_category(2), 2)
    assert set(equivalences(N)) == set(degenerate_edges(N))


def test_witnesses_push_forward():
    J = walking_iso(2)
    N = nerve(indiscrete_groupoid(2), 2)
    # J and the indiscrete nerve have identical tables, so identity works
    f = SimplicialMap(J, N, [list(range(J.counts[n])) for n in range(3)])
    assert not f.validate()
    for e, w in equivalences(J).items():
        pushed = EquivalenceWitness(f.comp[1][w.edge], f.comp[1][w.inverse],
                                    f.comp[2][w.left], f.comp[2][w.right])
        assert _witness_ok(N, pushed)


def test_localize_flat_is_identity():
    D1 = standard_simplex(1, 3)
    loc = localize(mark(D1, "flat"))
    assert loc.total is D1 and loc.glued_edges == []


def test_localize_sharp_interval_is_walking_iso():
    D1 = standard_simplex(1, 3)
    loc = localize(mark(D1, "sharp"))
    J = walking_iso(3)
    assert loc.total.counts == J.counts
    # certified: the J-leg of the quotient is an isomorphism here
    inj = loc.j_legs[0]
    assert inj.is_bijective()
    assert verify_iso_map(inj, invert_bijection(inj)).ok
    assert check_simplicial_identities(loc.total).ok


def _reference_localize(M, glued):
    """The localization as the pushout of S <- D + ... + D -> J + ... + J,
    with D = Delta[1] mapped onto each glued edge and onto the generator
    edge of its copy of J."""
    S = M.sset
    cap = S.cap
    D1, J = standard_simplex(1, cap), walking_iso(cap)
    A, _ = disjoint_union([D1] * len(glued))
    Cj, c_injs = disjoint_union([J] * len(glued))
    edges = [classifying_map(S, 1, e, D1) for e in glued]
    incl = delta_map(D1, J, (0, 1))
    to_j = [compose(inj, incl) for inj in c_injs]

    def stacked(codomain, maps):
        return SimplicialMap(A, codomain, [
            [v for m in maps for v in m.comp[n]] for n in range(cap + 1)])

    P, inj_s, inj_j = pushout(stacked(S, edges), stacked(Cj, to_j))
    image = frozenset(inj_s.comp[1][e] for e in M.marked)
    return P, inj_s, image, [compose(inj_j, inj) for inj in c_injs]


def test_localize_ids_match_the_pushout_construction():
    rng = random.Random(11)
    cats = [arrow_category(), chain_category(2), span_category(),
            cyclic_group_category(2), indiscrete_groupoid(2)]
    checked = 0
    for cap in (3, 4):
        values = [nerve(C, cap) for C in cats] + [
            random_sub_delta(rng, SuiteBounds(), cap) for _ in range(6)]
        for X in values:
            for mode in ("sharp", "natural"):
                M = mark(X, mode)
                loc = localize(M)
                if not loc.glued_edges:
                    assert loc.total is X
                    continue
                P, proj, image, j_legs = _reference_localize(
                    M, loc.glued_edges)
                Q = loc.total
                assert (Q.counts, Q.faces, Q.degens) == \
                    (P.counts, P.faces, P.degens)
                assert loc.proj.comp == proj.comp
                assert loc.marked_image == image
                assert [j.comp for j in loc.j_legs] == \
                    [j.comp for j in j_legs]
                checked += 1
    assert checked >= 15


def test_localize_unit_is_mono_and_marks_image():
    N = nerve(indiscrete_groupoid(2), 3)
    loc = localize(mark(N, "sharp"))
    assert loc.proj.is_injective()
    assert len(loc.marked_image) >= len(degenerate_edges(N))


def test_localized_contractible_groupoid_has_point_homology():
    for k in (2, 3):
        N = nerve(indiscrete_groupoid(k), 3)
        loc = localize(mark(N, "sharp"))
        assert homology_table(loc.total, 2) == [(1, []), (0, []), (0, [])]


def test_localization_is_weak_equivalence_on_homology():
    # gluing walking isomorphisms never changes homology below the cap
    N = nerve(cyclic_group_category(2), 3)
    loc = localize(mark(N, "sharp"))
    assert homology_table(loc.total, 2) == homology_table(N, 2)


def test_extend_along_degenerate_edge():
    D1 = standard_simplex(1, 2)
    e = degenerate_edges(D1)
    ext = extend_along_J(D1, sorted(e)[0])
    assert ext is not None and not ext.validate()


def test_extend_generator_of_J_is_identity():
    J = walking_iso(3)
    ext = extend_along_J(J, J.id_of(1, (0, 1)))
    assert ext is not None
    assert ext.comp == identity_map(J).comp


def test_extension_in_groupoid_nerve():
    N = nerve(cyclic_group_category(2), 3)
    for e in N.simplices(1):
        assert extend_along_J(N, e) is not None


def test_no_extension_for_non_equivalence():
    D1 = standard_simplex(1, 2)
    assert extend_along_J(D1, D1.id_of(1, (0, 1))) is None


def test_localization_universal_mediator():
    from relnerve.marked import localization_mediator
    # G: Delta[1] -> J classifying the generator equivalence
    cap = 3
    D1 = standard_simplex(1, cap)
    J = walking_iso(cap)
    G = SimplicialMap(D1, J, [[J.id_of(n, D1.key_of(n, t))
                               for t in D1.simplices(n)]
                              for n in range(cap + 1)])
    loc = localize(mark(D1, "sharp"))
    U = localization_mediator(loc, G)
    assert U is not None and U.validate() == []
    for n in range(cap + 1):
        for s in D1.simplices(n):
            assert U.comp[n][loc.proj.comp[n][s]] == G.comp[n][s]
    # identity out of a groupoid nerve: the mediator retracts the gluing
    N = nerve(cyclic_group_category(2), cap)
    locN = localize(mark(N, "sharp"))
    UN = localization_mediator(locN, identity_map(N))
    assert UN is not None and UN.validate() == []
    assert all(UN.comp[n][locN.proj.comp[n][s]] == s
               for n in range(cap + 1) for s in N.simplices(n))
    # a non-equivalence image has no extension, so no mediator
    bad = localization_mediator(loc, identity_map(D1))
    assert bad is None


def nerve_diagram_over_arrow(cap=3, value_cat=None):
    C = arrow_category()
    V = nerve(value_cat or arrow_category(), cap)
    return identity_arrow_diagram(V, cap)


def test_marked_rel_nerve_flat_and_sharp():
    # an edge (e, h) is marked exactly when its fiber component h is marked
    # in the value at the target of e; for flat values that is "h is
    # degenerate", which also covers the pure transport edges
    F = nerve_diagram_over_arrow()
    FM = mark_diagram(F, "sharp")
    OM, R = marked_rel_nerve(FM, 3)
    assert OM.marked.marked == frozenset(OM.sset.simplices(1))
    FMf = mark_diagram(F, "flat")
    OMf, Rf = marked_rel_nerve(FMf, 3)
    C = arrow_category()
    for e in OMf.sset.simplices(1):
        sid, (b0, b1) = OMf.sset.key_of(1, e)
        arrow = Rf.base_nerve.key_of(1, sid)[0]
        h_degenerate = F.values[C.tgt[arrow]].degenerate_flags(1)[b1]
        assert (e in OMf.marked.marked) == h_degenerate
    assert degenerate_edges(OMf.sset) <= OMf.marked.marked


def test_marked_rel_nerve_natural_passes_cocartesian_audit():
    FM = mark_diagram(nerve_diagram_over_arrow(cap=3), "natural")
    OM, R = marked_rel_nerve(FM, 3)
    assert cocartesian_fibration(OM.proj, 3).ok
    for e in sorted(OM.marked.marked):
        assert cocartesian_edge(OM.proj, e, 3).ok


def test_point_mapping_space_is_fiber():
    FM = mark_diagram(nerve_diagram_over_arrow(cap=3), "natural")
    OM, R = marked_rel_nerve(FM, 3)
    NC = R.base_nerve
    C = arrow_category()
    pt = standard_simplex(0, 3)
    from relnerve.pathspace import fiber_at
    for d in (0, 1):
        ptover = OverMarked(mark(pt, "flat"),
                            constant_map(pt, NC, NC.id_of(0, (d,))), NC, C)
        sp = OverMappingSpace(ptover, OM, 2)
        fib, inc, f, g = fiber_at(R, d)
        assert sp.sset.counts == fib.counts[:3]


def test_mapping_space_into_base_is_terminal():
    C = arrow_category()
    NC = nerve(C, 3)
    idbase = OverMarked(mark(NC, "sharp"), identity_map(NC), NC, C)
    sp = OverMappingSpace(idbase, idbase, 2)
    assert sp.sset.counts == [1, 1, 1]


def test_sharp_variant_keeps_marked_edge_simplices():
    FM = mark_diagram(nerve_diagram_over_arrow(cap=3), "natural")
    OM, R = marked_rel_nerve(FM, 3)
    C = arrow_category()
    over, *_ = under_nerve_sharp(C, 0, 3, NC=R.base_nerve)
    plus = OverMappingSpace(over, OM, 1)
    sharp = plus.sharp()
    assert sharp.sset.counts[0] == plus.sset.counts[0]
    # an edge is sharp iff it is marked, and the sharp part marks them all
    assert sharp.sset.counts[1] == len(plus.as_marked().marked)
    assert sharp.marked == frozenset(range(sharp.sset.counts[1]))
    low = OverMappingSpace(over, OM, 0).sharp()
    assert low.sset.counts == plus.sset.counts[:1] and not low.marked


def test_over_mapping_space_is_the_filtered_mapping_object():
    # independent route: the unfiltered mapping object, cut down afterwards
    # to the whole tables that lie over the base and send each marked X-edge
    # paired with a degenerate Delta-edge to a marked edge
    FM = mark_diagram(nerve_diagram_over_arrow(cap=3), "natural")
    OM, R = marked_rel_nerve(FM, 3)
    C = arrow_category()
    for d in (0, 1):
        over, *_ = under_nerve_sharp(C, d, 3, NC=R.base_nerve)
        E = Exponential(OM.sset, over.sset, 1)

        def kept(n, t):
            P, pr1, pr2 = E.prisms[n]
            degenerate = E.deltas[n].degenerate_flags(1)
            return all(
                OM.proj.comp[m][t[m][s]] == over.proj.comp[m][pr2.comp[m][s]]
                for m in range(4) for s in P.simplices(m)) and all(
                t[1][s] in OM.marked.marked for s in P.simplices(1)
                if degenerate[pr1.comp[1][s]]
                and pr2.comp[1][s] in over.marked.marked)

        sub, inc = sub_sset(E, [[s for s in E.simplices(n)
                                 if kept(n, E.table(n, s))]
                                for n in range(2)])
        space = OverMappingSpace(over, OM, 1)
        assert sub.counts == space.sset.counts
        assert sub.counts[1] < E.counts[1]
        assert sub.faces == space.sset.faces
        assert sub.degens == space.sset.degens
        for n in range(2):
            for s in sub.simplices(n):
                assert E.table(n, inc.comp[n][s]) == space.table(n, s)


def test_yoneda_vertices_are_natural_transformations():
    # poset-valued naturally marked diagram: vertices of the slice mapping
    # space biject with natural transformations D(d,-) => F
    import itertools
    cap = 3
    C = arrow_category()
    F = nerve_diagram_over_arrow(cap=cap)
    FM = mark_diagram(F, "natural")
    OM, R = marked_rel_nerve(FM, cap)

    def nat_transf_count(d):
        homs = [C.hom(d, o) for o in range(C.n_objects)]
        choices = [list(itertools.product(range(F.values[o].counts[0]),
                                          repeat=len(homs[o])))
                   for o in range(C.n_objects)]
        total = 0
        for pick in itertools.product(*choices):
            ok = True
            for m in range(C.n_morphisms):
                a, b = C.src[m], C.tgt[m]
                for gi, g in enumerate(homs[a]):
                    ti = homs[b].index(C.table[(m, g)])
                    if F.maps[m].comp[0][pick[a][gi]] != pick[b][ti]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                total += 1
        return total

    for d in (0, 1):
        over, *_ = under_nerve_sharp(C, d, cap, NC=R.base_nerve)
        sp = OverMappingSpace(over, OM, 0)
        assert sp.sset.counts[0] == nat_transf_count(d)


def test_unstraighten_at_base_gives_slice_nerve():
    C = arrow_category()
    NC = nerve(C, 3)
    idbase = OverMarked(mark(NC, "sharp"), identity_map(NC), NC, C)
    from relnerve.fincat import over_category
    for d in (0, 1):
        value, first = unstraighten_at(idbase, d)
        O, _, _, _ = over_category(C, d)
        assert value.sset.counts == nerve(O, 3).counts


def test_unstraighten_initial_object():
    # for d the terminal object of [1], N(D/d) is all of N(D)
    C = arrow_category()
    NC = nerve(C, 3)
    idbase = OverMarked(mark(NC, "sharp"), identity_map(NC), NC, C)
    value, first = unstraighten_at(idbase, 1)
    assert value.sset.counts == NC.counts


def test_unstraighten_fiber_copies():
    # a single fiber over 0 pulled back to d=1: copies indexed by hom(0, 1)
    C = arrow_category()
    NC = nerve(C, 3)
    pt = standard_simplex(0, 3)
    fib = OverMarked(mark(pt, "flat"),
                     constant_map(pt, NC, NC.id_of(0, (0,))), NC, C)
    value, first = unstraighten_at(fib, 1)
    assert value.sset.counts[0] == len(C.hom(0, 1))
    diag, firsts = unstraighten_diagram(fib)
    assert diag.validate() == []


def test_rectify_right_of_base_is_constant_point():
    C = arrow_category()
    NC = nerve(C, 3)
    idbase = OverMarked(mark(NC, "sharp"), identity_map(NC), NC, C)
    rect = rectify_right(idbase, 1)
    for v in rect.diagram.values:
        assert v.sset.counts == [1, 1]
    assert rect.diagram.validate() == []


def test_rectify_right_over_terminal_recovers_object():
    from relnerve.fincat import terminal_category
    T = terminal_category()
    NT = nerve(T, 3)
    X = nerve(arrow_category(), 3)
    xover = OverMarked(mark(X, "natural"), constant_map(X, NT, 0), NT, T)
    rect = rectify_right(xover, 1)
    assert rect.diagram.values[0].sset.counts == X.counts[:2]


def test_rectified_fibers_match_values_on_vertices():
    # the computable shadow of the unit being an equivalence
    cap = 3
    F = nerve_diagram_over_arrow(cap=cap)
    FM = mark_diagram(F, "natural")
    OM, R = marked_rel_nerve(FM, cap)
    rect = rectify_right(OM, 1)
    for d in (0, 1):
        assert rect.diagram.values[d].sset.counts[0] == \
            F.values[d].counts[0]
