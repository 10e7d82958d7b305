"""Each audit FAILs with a witness when one table entry of a freshly built
object is corrupted.  The corruption comes before the first audit: face
lookups are cached from the tables on first use."""

import random

import pytest

import relnerve.hocolim
from relnerve.bisset import box_product
from relnerve.certify import (check_bisimplicial,
                              check_simplicial_identities, cocartesian_edge,
                              cocartesian_fibration, inner_horn_lifts,
                              verify_iso_map)
from relnerve.fincat import (CatDiagram, arrow_category, constant_diagram,
                             cyclic_group_category, identity_functor,
                             indiscrete_groupoid, nerve, over_nerve,
                             span_category, terminal_category)
from relnerve.hocolim import (colim_via_marked, hocolim_qcat, iota,
                              iota_audit, iota_fiber_bijective)
from relnerve.marked import (extend_along_J, localization_mediator, localize,
                             mark)
from relnerve.pathspace import (compare_relnerve_iso, fiber_at,
                                lurie_grothendieck)
from relnerve.randomgen import SuiteBounds, random_cat_diagram
from relnerve.sset import (Exponential, SimplicialMap, SSetError, TruncSSet,
                           constant_map, descend, enumerate_maps, identity_map,
                           standard_simplex, walking_iso)

from conftest import span_diagram


def _circle():
    """One vertex, its degenerate edge 0 and a loop 1, at cap 1."""
    return TruncSSet(1, [1, 2], [None, [[0, 0], [0, 0]]], [[[0]]])


def test_verify_iso_map_fails_on_corrupted_comparison():
    f, g, L, R = compare_relnerve_iso(span_diagram(3), 3)
    f.comp[2][0] = (f.comp[2][0] + 1) % R.total.counts[2]
    cert = verify_iso_map(f, g)
    assert not cert.ok and cert.witness is not None


def test_fiber_isomorphism_fails_on_corrupted_entry():
    F = span_diagram(3)
    fib, inc, to_value, from_value = fiber_at(lurie_grothendieck(F, 3), 2)
    assert to_value.comp[0] == [0, 1]
    to_value.comp[0][0] = 1
    cert = verify_iso_map(to_value, from_value)
    assert not cert.ok and cert.witness is not None


def test_iota_audit_fails_on_corrupted_entry():
    F = span_diagram(3)
    io, bar, rel = iota(F, 3)
    assert bar.proj.comp[0][2] == bar.proj.comp[0][3]
    io.comp[0][3] = io.comp[0][2]        # two vertices of one fiber collide
    assert io.validate()
    assert not io.is_injective()
    assert not iota_fiber_bijective(io, bar, rel, F)
    cert = iota_audit(io, bar, rel, F)
    assert not cert.ok and cert.witness[0] == "simplicial"
    assert "witness=('simplicial'" in cert.line()


def test_bisimplicial_audit_fails_on_each_mixed_family():
    # rows and columns stay simplicial: a vertical s_0 (resp. horizontal
    # s_0) of the circle's vertex is sent to the loop in one column (row)
    B = box_product(standard_simplex(1, 1), _circle())
    B.vdegens[1][0][0][0] = 1
    cert = check_bisimplicial(B)
    assert not cert.ok and cert.witness[0] == "dh-sv"
    B = box_product(_circle(), standard_simplex(1, 1))
    B.hdegens[0][1][0][1] = 4
    cert = check_bisimplicial(B)
    assert not cert.ok and cert.witness[0] == "dv-sh"


def test_inner_horn_audit_fails_on_corrupted_face():
    N = nerve(cyclic_group_category(2), 3)
    N.faces[2][0][0] = (N.faces[2][0][0] + 1) % N.counts[1]
    cert = inner_horn_lifts(constant_map(N, standard_simplex(0, 3), 0), 2)
    assert not cert.ok and cert.witness[:2] == (2, 1)


def test_cocartesian_edge_audit_fails_on_corrupted_face():
    V = cyclic_group_category(2)
    F = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
    R = lurie_grothendieck(F.nerve_diagram(3), 3)
    X = R.total
    e = X.degens[0][0][0]
    x = X.degens[1][0][e]                # the only filler of the (e, e) horn
    X.faces[2][1][x] = (X.faces[2][1][x] + 1) % X.counts[1]
    cert = cocartesian_edge(R.proj, e, 2)
    assert not cert.ok and cert.witness is not None


def test_cocartesian_fibration_audit_fails_on_corrupted_face():
    R = lurie_grothendieck(
        constant_diagram(span_category(), standard_simplex(0, 3)), 3)
    X = R.total
    ebar = X.nondegenerate(1)[0]
    X.faces[1][1][ebar] = X.faces[1][0][ebar]   # its source moves away
    cert = cocartesian_fibration(R.proj, 3)
    assert not cert.ok and cert.witness[0] == "no-lift"


def test_extension_is_the_first_pinned_map():
    G = random_cat_diagram(random.Random(5), SuiteBounds())
    objects = [standard_simplex(1, 2), walking_iso(3),
               nerve(cyclic_group_category(2), 3),
               nerve(indiscrete_groupoid(2), 3),
               hocolim_qcat(G.nerve_diagram(3), 3).total]
    found = 0
    for S in objects:
        J = walking_iso(S.cap)
        for y in S.simplices(1):
            pins = {(0, J.id_of(0, (0,))): S.faces[1][1][y],
                    (0, J.id_of(0, (1,))): S.faces[1][0][y],
                    (1, J.id_of(1, (0, 1))): y}
            maps = enumerate_maps(
                J, S, lambda n, s, b: pins.get((n, s), b) == b)
            ext = extend_along_J(S, y)
            if not maps:
                assert ext is None
            else:
                assert ext.comp == maps[0]
                found += 1
    assert found > 0


def _swap(J):
    """The automorphism of J exchanging its two vertices."""
    return SimplicialMap(J, J, [[J.id_of(n, tuple(1 - v for v in
                                                  J.key_of(n, s)))
                                 for s in J.simplices(n)]
                                for n in range(J.cap + 1)])


def _classifying_edge(cap=3):
    """The sharp interval's localization, and G: Delta[1] -> J sending the
    interval onto the generator edge."""
    D1 = standard_simplex(1, cap)
    J = walking_iso(cap)
    G = SimplicialMap(D1, J, [[J.id_of(n, D1.key_of(n, t))
                               for t in D1.simplices(n)]
                              for n in range(cap + 1)])
    return localize(mark(D1, "sharp")), G, J


def test_mediator_refuses_an_extension_that_disagrees_with_G():
    # the swap sends the glued edge (0, 1) to (1, 0), where G sends it to
    # (0, 1): no map out of the localization restricts to both
    loc, G, J = _classifying_edge()
    assert localization_mediator(loc, G, [identity_map(J)]).validate() == []
    with pytest.raises(SSetError):
        localization_mediator(loc, G, [_swap(J)])


def test_colimit_retraction_fails_on_a_disagreeing_extension(monkeypatch):
    J = walking_iso(3)
    F = constant_diagram(terminal_category(), J)
    assert colim_via_marked(F).ok
    monkeypatch.setattr(relnerve.hocolim, "extend_along_J",
                        lambda S, y: _swap(J))
    cc = colim_via_marked(F)
    assert not cc.ok and cc.detail == "retraction incomplete"


def test_descend_fails_on_a_corrupted_leg_entry():
    loc, G, J = _classifying_edge()
    legs = [loc.proj] + loc.j_legs
    ext = identity_map(J)
    assert descend(legs, [G, ext]).validate() == []
    ext.comp[1][J.id_of(1, (0, 1))] = J.id_of(1, (1, 0))
    with pytest.raises(SSetError, match="disagree"):
        descend(legs, [G, ext])


def test_descend_fails_on_a_quotient_that_is_not_covered():
    loc, G, J = _classifying_edge()
    with pytest.raises(SSetError, match="miss"):
        descend([loc.proj], [G])


def test_over_nerve_refuses_a_fibre_listed_out_of_order():
    # Delta[1] x N(C), with Delta[1] the fibre over every base simplex;
    # listing one fibre backwards must be refused, not numbered by it
    X, NC = standard_simplex(1, 2), nerve(arrow_category(), 2)

    def rule(tables):
        return lambda n, i, k, nk: lambda xs: [tables[n][i][x] for x in xs]

    def fiber(backwards):
        def listed(n, k):
            fib = list(X.simplices(n))
            return fib[::-1] if (n, k) == backwards else fib
        return listed

    total, _ = over_nerve(NC, 2, fiber(None), rule(X.faces), rule(X.degens))
    assert check_simplicial_identities(total).ok
    with pytest.raises(SSetError, match="base simplex 2 in degree 1"):
        over_nerve(NC, 2, fiber((1, NC.key_of(1, 2))), rule(X.faces),
                   rule(X.degens))


def test_mapping_object_refuses_a_corrupted_degenerate_entry():
    # a key holds only the nondegenerate entries; id_of checks the others
    Y = walking_iso(3)
    E = Exponential(Y, standard_simplex(1, 3), 1)
    for n in range(2):
        P = E.prisms[n][0]
        degenerate = [(d, p) for d in range(1, 4) for p in P.simplices(d)
                      if P.degenerate_flags(d)[p]]
        for s in E.simplices(n):
            assert E.id_of(n, E.table(n, s)) == s
            for d, p in degenerate:
                table = [list(row) for row in E.table(n, s)]
                table[d][p] = (table[d][p] + 1) % Y.counts[d]
                with pytest.raises(KeyError):
                    E.id_of(n, table)
