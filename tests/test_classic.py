import os
import random

from relnerve.certify import verify_iso_map
from relnerve.classic import (audit_double_category, classical_cocartesian,
                              double_category, grothendieck_classic,
                              mapping_path_category, nerve_comparison)
from relnerve.fincat import (CatDiagram, CatFunctor, FinCategory,
                             arrow_category, cyclic_group_category,
                             identity_functor, indiscrete_groupoid,
                             span_category, terminal_category,
                             validate_category)
from relnerve.randomgen import SuiteBounds, random_cat_diagram
from relnerve.specio import parse_spec


def discrete_category(k):
    return FinCategory(k, list(range(k)), list(range(k)), list(range(k)),
                       {(i, i): i for i in range(k)})


def two_object_discrete_diagram():
    """D=[1], F(0)={x}, F(1)={y,z}, F(f)(x)=y."""
    C = arrow_category()
    one = discrete_category(1)
    two = discrete_category(2)
    return CatDiagram(C, [one, two],
                      [identity_functor(one), CatFunctor(one, two, [0], [0]),
                       identity_functor(two)])


def test_mapping_path_category_over_identity():
    # P^1 over id_c has objects the pairs (object, outgoing arrow)
    C = arrow_category()
    V = arrow_category()
    F = CatDiagram(C, [V, V], [identity_functor(V)] * 3)
    mp = mapping_path_category(F, 0)       # id_0
    assert len(mp.objects) == V.n_morphisms
    assert validate_category(mp.cat) == []


def test_mapping_path_category_discrete_target():
    F = two_object_discrete_diagram()
    mp = mapping_path_category(F, 1)       # the nonidentity arrow
    # discrete target: only identity second components
    assert len(mp.objects) == 1
    assert mp.objects[0][0] == 0


def test_mapping_path_category_empty_source():
    C = arrow_category()
    empty = FinCategory(0, [], [], [], {})
    one = discrete_category(1)
    F = CatDiagram(C, [empty, one],
                   [identity_functor(empty), CatFunctor(empty, one, [], []),
                    identity_functor(one)])
    mp = mapping_path_category(F, 1)
    assert mp.objects == []


def test_double_category_audit():
    F = two_object_discrete_diagram()
    assert audit_double_category(double_category(F)) == []
    V = cyclic_group_category(2)
    G = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
    assert audit_double_category(double_category(G)) == []
    W = indiscrete_groupoid(2)
    H = CatDiagram(arrow_category(), [W, W], [identity_functor(W)] * 3)
    assert audit_double_category(double_category(H)) == []


def test_unit_endpoints():
    F = two_object_discrete_diagram()
    dd = double_category(F)
    for c in range(F.shape.n_objects):
        for b0 in range(F.values[c].n_objects):
            f, loc = dd.unit_of(c, b0)
            assert dd.source_of(f, loc) == (c, b0)
            assert dd.target_of(f, loc) == (c, b0)


def test_classic_grothendieck_discrete_example():
    G = grothendieck_classic(two_object_discrete_diagram())
    assert len(G.objects) == 3
    assert len(G.morphisms) == 4           # three identities + x -> y
    assert validate_category(G.total) == []
    assert G.proj.validate() == []


def test_classic_constant_at_terminal_is_base():
    C = span_category()
    one = discrete_category(1)
    F = CatDiagram(C, [one] * 3, [identity_functor(one)] * 5)
    G = grothendieck_classic(F)
    assert len(G.objects) == C.n_objects
    assert len(G.morphisms) == C.n_morphisms


def test_classic_over_terminal_is_value():
    T = terminal_category()
    V = cyclic_group_category(2)
    F = CatDiagram(T, [V], [identity_functor(V)])
    G = grothendieck_classic(F)
    assert len(G.objects) == V.n_objects
    assert len(G.morphisms) == V.n_morphisms


def test_fiber_of_classic_is_value():
    F = two_object_discrete_diagram()
    G = grothendieck_classic(F)
    for c in range(F.shape.n_objects):
        objs = [i for i, (cc, _) in enumerate(G.objects) if cc == c]
        mors = [i for i, (f, _) in enumerate(G.morphisms)
                if G.double.diagram.shape.is_identity(f)
                and G.proj.obj_map[G.total.src[i]] == c]
        assert len(objs) == F.values[c].n_objects
        assert len(mors) == F.values[c].n_morphisms


def test_nerve_comparison_triangle():
    F = two_object_discrete_diagram()
    G = grothendieck_classic(F)
    f, g, NG, R = nerve_comparison(G, 3)
    assert verify_iso_map(f, g).ok


def test_nerve_comparison_group_diagram():
    V = cyclic_group_category(2)
    F = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
    G = grothendieck_classic(F)
    f, g, NG, R = nerve_comparison(G, 3)
    assert verify_iso_map(f, g).ok


def test_nerve_comparison_is_an_iso_on_random_diagrams_and_at_scale():
    # 30 random Cat diagrams and the triangle of chain categories [5]
    diagrams = [random_cat_diagram(random.Random(s), SuiteBounds())
                for s in range(30)]
    with open(os.path.join(os.path.dirname(__file__), "scale",
                           "triangle_chain5.rnspec")) as fh:
        diagrams.append(parse_spec(fh.read()).diagram)
    for G in diagrams:
        f, g, NG, R = nerve_comparison(grothendieck_classic(G), 4)
        cert = verify_iso_map(f, g)
        assert (cert.verdict, cert.bound) == ("PASS", 4)


def test_classical_cocartesian_flags():
    V = arrow_category()
    F = CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
    G = grothendieck_classic(F)
    flags = [classical_cocartesian(G, m) for m in range(len(G.morphisms))]
    # identity components are isomorphisms, the walking arrow is not
    assert any(flags) and not all(flags)


def test_double_category_audit_on_random_diagrams():
    import random
    from relnerve.randomgen import SuiteBounds, random_cat_diagram
    rng = random.Random(4)
    for _ in range(6):
        F = random_cat_diagram(rng, SuiteBounds(max_objects=2))
        assert audit_double_category(double_category(F)) == []


def test_projection_nerve_is_cocartesian_fibration():
    from relnerve.certify import cocartesian_fibration
    from relnerve.fincat import nerve, nerve_map
    F = two_object_discrete_diagram()
    G = grothendieck_classic(F)
    NG = nerve(G.total, 3)
    Np = nerve_map(G.proj, 3, NG, nerve(F.shape, 3))
    assert cocartesian_fibration(Np, 3).ok
