import itertools
import os
import random

import pytest

import relnerve.hocolim
import relnerve.pathspace
from relnerve.certify import check_simplicial_identities
from relnerve.fincat import (CatDiagram, CatFunctor, FinCategory,
                             arrow_category, category_from_generators,
                             chain_arrows, chain_category, chain_objects,
                             corepresentable_diagram,
                             cyclic_group_category, identity_functor,
                             indiscrete_groupoid, keyed_category,
                             map_over_nerve, nerve, nerve_map,
                             over_category, over_nerve, span_category,
                             terminal_category, under_category,
                             validate_category)
from relnerve.hocolim import bar_hocolim, iota
from relnerve.pathspace import (compare_relnerve_iso, lurie_grothendieck,
                                relative_nerve_direct, simplicial_space)
from relnerve.randomgen import (SuiteBounds, random_cat_diagram,
                                random_sset_diagram)
from relnerve.specio import parse_spec
from relnerve.sset import KeyedSSet, keyed_tables

from conftest import span_diagram


def test_terminal_category_is_valid():
    assert validate_category(terminal_category()) == []


def test_unit_violation_is_reported():
    C = terminal_category()
    # inject a second morphism with a broken unit law
    bad = FinCategory(1, [0, 0], [0, 0], [0],
                      {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1})
    report = validate_category(bad)
    assert any(kind in ("left-unit", "right-unit")
               for (kind, *rest) in report)


def test_span_closure_is_valid():
    assert validate_category(span_category()) == []
    assert validate_category(cyclic_group_category(2)) == []
    assert validate_category(indiscrete_groupoid(3)) == []
    assert validate_category(category_from_generators(3, [(0, 1), (1, 2)])) \
        == []


def test_missing_composite_is_reported():
    C = span_category()
    table = dict(C.table)
    del table[(3, 2)]            # p o id_c
    bad = FinCategory(3, C.src, C.tgt, C.identity, table)
    assert ("missing-composite", 3, 2) in validate_category(bad)


def test_nerve_counts():
    assert nerve(terminal_category(), 2).counts == [1, 1, 1]
    assert nerve(arrow_category(), 2).counts == [2, 3, 4]
    assert nerve(cyclic_group_category(2), 3).counts == [1, 2, 4, 8]


def test_nerve_passes_identity_audit():
    for C in (arrow_category(), span_category(), cyclic_group_category(2),
              indiscrete_groupoid(2)):
        assert check_simplicial_identities(nerve(C, 3)).ok


def test_nerve_functoriality():
    C = arrow_category()
    D = span_category()
    F = CatFunctor(C, D, [2, 0], [2, 3, 0])     # 0 -> c, 1 -> a, g0 -> p
    assert F.validate() == []
    G = identity_functor(D)
    NF = nerve_map(F, 2)
    NG = nerve_map(G, 2, NF.codomain, NF.codomain)
    from relnerve.fincat import compose_functors
    NGF = nerve_map(compose_functors(G, F), 2, NF.domain, NF.codomain)
    assert [[NG.comp[n][NF.comp[n][s]] for s in range(NF.domain.counts[n])]
            for n in range(3)] == NGF.comp


def test_under_categories_of_the_arrow():
    C = arrow_category()
    U0, forget0, objs0, _ = under_category(C, 0)
    assert U0.n_objects == 2 and U0.n_morphisms == 3
    assert validate_category(U0) == []
    assert forget0.validate() == []
    U1, _, _, _ = under_category(C, 1)
    assert U1.n_objects == 1 and U1.n_morphisms == 1
    T, _, _, _ = under_category(terminal_category(), 0)
    assert T.n_objects == 1


def test_over_category_dual():
    C = arrow_category()
    O1, forget, objs, _ = over_category(C, 1)
    assert O1.n_objects == 2
    assert validate_category(O1) == []
    assert forget.validate() == []
    O0, _, _, _ = over_category(C, 0)
    assert O0.n_objects == 1


def test_slices_key_each_morphism_by_its_end_object():
    # {id, z} with z o z = z: z is not epi, so the morphisms id and z of
    # C/0 into the object z share their source z o id = z o z = z
    C = FinCategory(1, [0, 0], [0, 0], [0],
                    {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    for S, forget, objs, keys in (under_category(C, 0),
                                  over_category(C, 0)):
        assert objs == [0, 1]
        assert S.n_morphisms == len(keys) == 4
        assert validate_category(S) == []
        assert forget.validate() == []


def test_keyed_category_numbers_keys_in_the_order_given():
    calls = []

    def compose(g, f):
        calls.append((g, f))
        return f[0] + g[1]

    # the chain b -> a with objects listed out of sorted order
    C, obj_id, mor_id = keyed_category(
        ["b", "a"], ["aa", "bb", "ba"], lambda m: m[0], lambda m: m[1],
        lambda o: o + o, compose, obj_names=["b", "a"])
    assert obj_id == {"b": 0, "a": 1}
    assert mor_id == {"aa": 0, "bb": 1, "ba": 2}
    assert (C.src, C.tgt, C.identity) == ([1, 0, 0], [1, 0, 1], [1, 0])
    assert C.obj_names == ["b", "a"] and validate_category(C) == []
    # compose sees only the composable pairs, each once
    assert sorted(calls) == [("aa", "aa"), ("aa", "ba"), ("ba", "bb"),
                             ("bb", "bb")]


def test_under_nerve_is_corepresentable_relative_nerve():
    # N(d/D) is isomorphic to the relative nerve of D(d,-)
    from relnerve.pathspace import lurie_grothendieck
    cap = 3
    for C in (arrow_category(), span_category()):
        for d in range(C.n_objects):
            U, forget, objs, keys = under_category(C, d)
            NU = nerve(U, cap)
            Fd, homs = corepresentable_diagram(C, d, cap)
            assert Fd.validate() == []
            R = lurie_grothendieck(Fd, cap)
            assert NU.counts == R.total.counts
            # explicit iso: a chain in d/D is (g_0, arrows); the tuple of
            # transported legs recovers it
            fwd = []
            for n in range(cap + 1):
                row = []
                for s in NU.simplices(n):
                    k = NU.key_of(n, s)
                    if n == 0:
                        g = objs[k[0]]
                        sid = R.base_nerve.id_of(0, (C.tgt[g],))
                        row.append(R.total.id_of(
                            0, (sid, (homs[C.tgt[g]].index(g),))))
                        continue
                    base = tuple(forget.mor_map[m] for m in k)
                    sid = R.base_nerve.id_of(n, base)
                    legs = []
                    g0 = objs[U.src[k[0]]]
                    cur = g0
                    legs.append(cur)
                    for i in range(1, n + 1):
                        cur = C.table[(base[i - 1], cur)]
                        legs.append(cur)
                    beta = tuple(
                        homs[C.tgt[legs[i]]].index(legs[i])
                        for i in range(n + 1))
                    row.append(R.total.id_of(n, (sid, beta)))
                fwd.append(row)
            from relnerve.sset import SimplicialMap
            f = SimplicialMap(NU, R.total, fwd)
            assert not f.validate()
            assert f.is_bijective()


def test_chain_arrow_composites():
    C = span_category()
    N = nerve(C, 3)
    # chain c -p-> a -id-> a
    key = (3, 0)
    arrows = chain_arrows(C, key, 2)
    assert arrows[0][1] == 3
    assert arrows[0][2] == 3
    assert arrows[1][1] == 0
    assert arrows[0][0] == 2


def test_chain_readers_match_the_nerve_operators():
    # vertex j is the simplex's restriction to {j}, sigma(a, j) its
    # restriction to {a, j}; the diagonal holds identities, below it None
    for C in _catalog_and_random_categories():
        NC = nerve(C, 4)
        for n in range(5):
            for sid, key in enumerate(NC.keys[n]):
                objs = chain_objects(C, key, n)
                arrows = chain_arrows(C, key, n)
                assert list(objs) == [NC.key_of(0, NC.op_table(n, (j,))[sid])
                                      [0] for j in range(n + 1)]
                for a in range(n + 1):
                    assert arrows[a] == [None] * a + [C.identity[objs[a]]] + [
                        NC.key_of(1, NC.op_table(n, (a, j))[sid])[0]
                        for j in range(a + 1, n + 1)]


def test_diagram_validation_catches_broken_functoriality():
    from relnerve.sset import (SimplicialMap, constant_map, discrete,
                               identity_map, standard_simplex)
    from relnerve.fincat import SSetDiagram
    C = span_category()
    pt = standard_simplex(0, 2)
    two = discrete(2, 2)
    good = SSetDiagram(C, [pt, pt, two],
                       [identity_map(pt), identity_map(pt),
                        identity_map(two), constant_map(two, pt, 0),
                        constant_map(two, pt, 0)])
    assert good.validate() == []
    swapped = SimplicialMap(two, two, [[1, 0], [1, 0], [1, 0]])
    bad = SSetDiagram(C, [pt, pt, two],
                      [identity_map(pt), identity_map(pt), swapped,
                       constant_map(two, pt, 0), constant_map(two, pt, 0)])
    assert any(kind == "identity" for (kind, *r) in bad.validate())


def test_cat_diagram_nerve_composition():
    C = arrow_category()
    V = cyclic_group_category(2)
    F = CatDiagram(C, [V, V], [identity_functor(V), identity_functor(V),
                               identity_functor(V)])
    assert F.validate() == []
    NF = F.nerve_diagram(3)
    assert NF.validate() == []
    assert NF.values[0].counts == [1, 2, 4, 8]


# -- the per-key constructions that the whole-degree nerve and the
# -- whole-fibre over_nerve replace, kept as references

def _reference_nerve(C, cap):
    """N(C) with each face and degeneracy read off one key at a time."""
    out_of = [[] for _ in range(C.n_objects)]
    for m in range(C.n_morphisms):
        out_of[C.src[m]].append(m)
    keys = [[(o,) for o in range(C.n_objects)],
            [(m,) for m in range(C.n_morphisms)]][:cap + 1]
    for n in range(2, cap + 1):
        keys.append([k + (m,) for k in keys[n - 1]
                     for m in out_of[C.tgt[k[-1]]]])

    def face_key(n, i, key):
        if n == 1:
            return (C.tgt[key[0]],) if i == 0 else (C.src[key[0]],)
        if i == 0:
            return key[1:]
        if i == n:
            return key[:-1]
        return key[:i - 1] + (C.table[(key[i], key[i - 1])],) + key[i + 1:]

    def degen_key(n, i, key):
        if n == 0:
            return (C.identity[key[0]],)
        obj = C.src[key[0]] if i == 0 else C.tgt[key[i - 1]]
        return key[:i] + (C.identity[obj],) + key[i:]

    return KeyedSSet(cap, *keyed_tables(cap, keys, _per_key(face_key,
                                                            degen_key)))


def _per_key(face_key, degen_key):
    """The ``op`` of ``keyed_tables`` that calls ``face_key(n, i, key)`` or
    ``degen_key(n, i, key)`` on each key."""
    return lambda n, i, d: lambda key: (face_key if d < 0 else degen_key)(
        n, i, key)


def _reference_over_nerve(NC, cap, fiber, op):
    """The total space with all keys (sid, p) sorted together and each
    face and degeneracy found by applying the reads of ``op`` to one key;
    returns the total and its projection table."""
    keys = [[(sid, p) for sid, k in enumerate(NC.keys[n])
             for p in fiber(n, k)] for n in range(cap + 1)]

    def op_key(n, i, d, key):
        sid, p = key
        tid = NC.operator(n, i, d)[sid]
        coords = p if isinstance(p, tuple) else (p,)
        new = tuple(coords[k] if table is None else table[coords[k]]
                    for k, table in op(n, i, d, NC.keys[n][sid]))
        return tid, new if isinstance(p, tuple) else new[0]

    total = KeyedSSet(cap, *keyed_tables(cap, keys, lambda n, i, d: (
        lambda key: op_key(n, i, d, key))))
    return total, [[key[0] for key in ks] for ks in total.keys]


def _assert_same_keyed(X, ref):
    assert X.keys == ref.keys
    assert X.faces == ref.faces and X.degens == ref.degens
    for n, ks in enumerate(ref.keys):
        assert [X.id_of(n, k) for k in ks] == list(range(len(ks)))


def _catalog_and_random_categories():
    cats = [terminal_category(), arrow_category(), span_category(),
            chain_category(3), cyclic_group_category(2),
            cyclic_group_category(3), indiscrete_groupoid(2),
            indiscrete_groupoid(3),
            category_from_generators(3, [(0, 1), (0, 1), (1, 2)])]
    rng = random.Random(3)
    for _ in range(8):
        cats.append(random_sset_diagram(rng, SuiteBounds()).shape)
        G = random_cat_diagram(rng, SuiteBounds())
        cats += [G.shape] + G.values
    return cats


def test_nerve_matches_the_per_key_nerve():
    for C in _catalog_and_random_categories():
        for cap in (0, 1, 2, 4):
            _assert_same_keyed(nerve(C, cap), _reference_nerve(C, cap))


def test_over_nerve_matches_the_per_key_construction(monkeypatch):
    # every over_nerve call of the bar construction, both relative nerves
    # and the rows of the simplicial space, rebuilt key by key
    calls = []

    def recording(*args):
        calls.append((args, over_nerve(*args)))
        return calls[-1][1]

    monkeypatch.setattr(relnerve.hocolim, "over_nerve", recording)
    monkeypatch.setattr(relnerve.pathspace, "over_nerve", recording)
    rng = random.Random(5)
    diagrams = [span_diagram(4)] + [random_sset_diagram(rng, SuiteBounds())
                                    for _ in range(5)]
    rng = random.Random(6)
    diagrams += [random_cat_diagram(rng, SuiteBounds()).nerve_diagram(4)
                 for _ in range(5)]
    for F in diagrams:
        calls.clear()
        bar_hocolim(F, 4)
        lurie_grothendieck(F, 4)
        relative_nerve_direct(F, 3)
        simplicial_space(F, 2, 2)
        assert len(calls) == 6
        for args, (total, proj) in calls:
            ref, ref_proj = _reference_over_nerve(*args)
            _assert_same_keyed(total, ref)
            assert proj.comp == ref_proj


# -- the per-key maps that map_over_nerve replaces, kept as references

def _reference_iota(U, bar, rel):
    """``iota`` one key at a time: (sigma, x) goes to the tuple of the front
    faces of x, the i-th transported along sigma(0, i)."""
    C, NC = U.shape, bar.base_nerve
    comp = []
    for n, keys in enumerate(bar.total.keys):
        row = []
        for sid, x in keys:
            k = NC.keys[n][sid]
            X = U.values[chain_objects(C, k, n)[0]]
            beta = tuple(U.maps[a].comp[i][X.op_table(n, tuple(range(
                i + 1)))[x]] for i, a in enumerate(chain_arrows(C, k, n)[0]))
            row.append(rel.total.id_of(n, (sid, beta)))
        comp.append(row)
    return comp


def _reference_relnerve_iso(F, L, R):
    """Both maps of ``compare_relnerve_iso`` one key at a time: forward
    puts the face J of beta at its last vertex at each subposet J, backward
    keeps the simplices at the front segments."""
    C, NC = F.shape, L.base_nerve
    fwd, bwd = [], []
    for n, keys in enumerate(L.total.keys):
        subs = [J for r in range(1, n + 2)
                for J in itertools.combinations(range(n + 1), r)]
        fwd.append([R.total.id_of(n, (sid, tuple(
            F.values[chain_objects(C, NC.keys[n][sid], n)[J[-1]]]
            .op_table(J[-1], J)[beta[J[-1]]] for J in subs)))
            for sid, beta in keys])
        fronts = [subs.index(tuple(range(i + 1))) for i in range(n + 1)]
        bwd.append([L.total.id_of(n, (sid, tuple(fam[p] for p in fronts)))
                    for sid, fam in R.total.keys[n]])
    return fwd, bwd


def _fixture_and_random_diagrams():
    """Each fixture at its cap, as a plain simplicial diagram, and 30 random
    diagrams at caps 2-4."""
    out = []
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for name in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, name)) as fh:
            spec = parse_spec(fh.read())
        F = spec.diagram.nerve_diagram(spec.cap) if spec.kind == "cat" \
            else spec.diagram.underlying()
        out.append((F, spec.cap))
    for s in range(30):
        F = random_sset_diagram(random.Random(s), SuiteBounds())
        out += [(F, cap) for cap in (2, 3, 4)]
    return out


def test_maps_over_the_nerve_match_the_per_key_maps():
    for F, cap in _fixture_and_random_diagrams():
        f, g, L, R = compare_relnerve_iso(F, cap)
        assert (f.comp, g.comp) == _reference_relnerve_iso(F, L, R), cap
        io, bar, rel = iota(F, cap, rel=L)
        assert io.comp == _reference_iota(F, bar, rel), cap


def test_a_read_that_leaves_the_target_fibre_is_a_key_error():
    # over the point at a, the vertex 0 read one up is no vertex at all
    L = lurie_grothendieck(span_diagram(3), 3)
    with pytest.raises(KeyError):
        map_over_nerve(L.base_nerve, L.total, L.total, lambda n, k: [
            (0, range(1, 10))] + [(j, None) for j in range(1, n + 1)])
