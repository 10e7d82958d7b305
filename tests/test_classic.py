import os
import random
from dataclasses import dataclass
from operator import itemgetter

from relnerve.certify import verify_iso_map
from relnerve.classic import (DoubleCategoryData, audit_double_category,
                              classical_cocartesian, double_category,
                              grothendieck_classic, horizontal_category,
                              nerve_comparison)
from relnerve.fincat import (CatDiagram, CatFunctor, FinCategory,
                             arrow_category, category_from_generators,
                             chain_category, cyclic_group_category,
                             identity_functor, indiscrete_groupoid,
                             keyed_category, span_category,
                             terminal_category, validate_category)
from relnerve.randomgen import SuiteBounds, random_cat_diagram
from relnerve.specio import parse_spec

TESTS = os.path.dirname(__file__)


@dataclass
class MappingPathCategory:
    cat: FinCategory
    objects: list          # (b0, b1) pairs
    morphisms: list        # (src_local, tgt_local, f0, f1)
    index: dict            # object -> its position in ``objects``


def mapping_path_category(F, f):
    """P^1 of the functor F(f), as an explicit finite category: the
    reference of which ``double_category`` builds only the objects."""
    D = F.shape
    A = F.values[D.src[f]]
    B = F.values[D.tgt[f]]
    Ff = F.maps[f]
    objects = [(b0, b1) for b0 in range(A.n_objects)
               for b1 in range(B.n_morphisms)
               if B.src[b1] == Ff.obj_map[b0]]
    morphisms = []
    for si, (b0, b1) in enumerate(objects):
        for ti, (c0, c1) in enumerate(objects):
            for f0 in A.hom(b0, c0):
                for f1 in B.hom(B.tgt[b1], B.tgt[c1]):
                    # commuting square: c1 o F(f)(f0) = f1 o b1
                    if B.table[(c1, Ff.mor_map[f0])] == B.table[(f1, b1)]:
                        morphisms.append((si, ti, f0, f1))
    # morphisms compose componentwise; ids are positions in ``objects``
    cat = keyed_category(
        range(len(objects)), morphisms, itemgetter(0), itemgetter(1),
        lambda i: (i, i, A.identity[objects[i][0]],
                   B.identity[B.tgt[objects[i][1]]]),
        lambda g, h: (h[0], g[1], A.table[g[2], h[2]],
                      B.table[g[3], h[3]]))[0]
    return MappingPathCategory(cat, objects, morphisms,
                               {o: i for i, o in enumerate(objects)})


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


def empty_source_diagram():
    C = arrow_category()
    empty = FinCategory(0, [], [], [], {})
    one = discrete_category(1)
    return CatDiagram(C, [empty, one],
                      [identity_functor(empty), CatFunctor(empty, one, [], []),
                       identity_functor(one)])


def spec_diagram(*path):
    with open(os.path.join(TESTS, *path)) as fh:
        return parse_spec(fh.read()).diagram


def reference_diagrams():
    """Each catalogue category at both ends of [1] along the identity, the
    hand-made diagrams, the Cat fixtures and 30 random Cat diagrams."""
    catalogue = [terminal_category(), arrow_category(), span_category(),
                 chain_category(2), cyclic_group_category(2),
                 cyclic_group_category(3), indiscrete_groupoid(2),
                 category_from_generators(2, [(0, 1), (0, 1)])]
    out = [CatDiagram(arrow_category(), [V, V], [identity_functor(V)] * 3)
           for V in catalogue]
    out += [two_object_discrete_diagram(), empty_source_diagram(),
            spec_diagram("fixtures", "span_cat.rnspec"),
            spec_diagram("fixtures", "z2_loop_cat.rnspec")]
    return out + [random_cat_diagram(random.Random(s), SuiteBounds())
                  for s in range(30)]


def test_double_category_builds_the_objects_of_the_reference():
    for F in reference_diagrams():
        dd = double_category(F)
        assert len(dd.path_cats) == F.shape.n_morphisms
        for f, path in enumerate(dd.path_cats):
            ref = mapping_path_category(F, f)
            assert path.objects == ref.objects
            assert path.index == ref.index


def test_total_category_matches_the_one_built_from_the_reference():
    for F in reference_diagrams():
        G = grothendieck_classic(F)
        ref = DoubleCategoryData([mapping_path_category(F, f) for f in
                                  range(F.shape.n_morphisms)], F)
        R, obj_index, mor_index = horizontal_category(ref)
        T = G.total
        assert (G.obj_index, G.mor_index) == (obj_index, mor_index)
        assert (T.n_objects, T.src, T.tgt, T.identity, T.table) == \
            (R.n_objects, R.src, R.tgt, R.identity, R.table)
        assert (T.obj_names, T.mor_names) == (R.obj_names, R.mor_names)


def test_mapping_path_category_over_identity():
    # P^1 over id_c has objects the pairs (object, outgoing arrow)
    C = arrow_category()
    V = arrow_category()
    F = CatDiagram(C, [V, V], [identity_functor(V)] * 3)
    mp = mapping_path_category(F, 0)       # id_0
    assert len(mp.objects) == V.n_morphisms
    assert validate_category(mp.cat) == []
    assert double_category(F).path_cats[0].objects == mp.objects


def test_mapping_path_category_discrete_target():
    F = two_object_discrete_diagram()
    for mp in (mapping_path_category(F, 1), double_category(F).path_cats[1]):
        # discrete target: only identity second components
        assert len(mp.objects) == 1
        assert mp.objects[0][0] == 0


def test_mapping_path_category_empty_source():
    F = empty_source_diagram()
    assert mapping_path_category(F, 1).objects == []
    assert double_category(F).path_cats[1].objects == []


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
    diagrams.append(spec_diagram("scale", "triangle_chain5.rnspec"))
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
