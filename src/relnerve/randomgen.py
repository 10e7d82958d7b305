"""Seeded random diagrams within exhaustively-checkable bounds.

Shapes are free categories on small DAGs, so a diagram is determined by
values on objects and maps on generating arrows; values are downward-closed
subcomplexes of a standard simplex (plus small catalog categories for the
Cat-valued generator).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .fincat import (CatDiagram, CatFunctor, SSetDiagram,
                     category_from_generators, compose_functors,
                     cyclic_group_category, identity_functor,
                     indiscrete_groupoid)
from .sset import compose, delta_map, identity_map, tuple_sset


@dataclass(frozen=True)
class SuiteBounds:
    max_objects: int = 3
    max_parallel: int = 2
    max_nondeg: int = 6
    cap: int = 4

    def check(self):
        if self.max_objects > 3 or self.max_parallel > 2 \
                or self.max_nondeg > 6 or self.cap > 4:
            raise ValueError("bounds exceed the exhaustively-checkable "
                             "defaults (<=3 objects, <=2 parallel arrows, "
                             "<=6 nondegenerate simplices, cap <= 4)")
        if self.max_objects < 1 or self.max_parallel < 0 \
                or self.max_nondeg < 1 or self.cap < 2:
            raise ValueError("bounds below what the suite runs (>=1 object, "
                             ">=0 parallel arrows, >=1 nondegenerate "
                             "simplex, cap >= 2)")


def random_shape(rng, bounds):
    """Free category on a random DAG, with its generator decomposition."""
    k = rng.randint(1, bounds.max_objects)
    generators = []
    for a in range(k):
        for b in range(a + 1, k):
            for _ in range(rng.randint(0, bounds.max_parallel)):
                generators.append((a, b))
    generators.sort()
    C = category_from_generators(k, generators)
    return C, generators


def random_sub_delta(rng, bounds, cap):
    """Random downward-closed subcomplex of a standard simplex, nonempty,
    with at most the allowed number of nondegenerate simplices."""
    while True:
        N = rng.randint(0, 3)
        pool = [c for r in range(1, N + 2)
                for c in itertools.combinations(range(N + 1), r)]
        picks = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        closure = set()
        for p in picks:
            for r in range(1, len(p) + 1):
                closure.update(itertools.combinations(p, r))
        if len(closure) <= bounds.max_nondeg:
            break
    supports = frozenset(closure)

    def member(t):
        return tuple(sorted(set(t))) in supports

    X = tuple_sset(cap, [[t for t in itertools.combinations_with_replacement(
        range(N + 1), m + 1) if member(t)] for m in range(cap + 1)])
    X.vertex_span = N
    X.supports = supports
    return X


def random_sub_delta_map(rng, A, B):
    """A simplicial map induced by a monotone vertex assignment carrying
    every generating support of A into B."""
    NA, NB = A.vertex_span, B.vertex_span
    candidates = []
    for u in itertools.combinations_with_replacement(range(NB + 1), NA + 1):
        if all(tuple(sorted(set(u[v] for v in s))) in B.supports
               for s in A.supports):
            candidates.append(u)
    return delta_map(A, B, rng.choice(candidates))


def _along_paths(C, identity, after, images):
    """The image of each morphism of the free category C, in id order: the
    composite ``after(images[g_k], .. after(images[g_1], identity(a)))``
    along its generator path ``g_1, .., g_k`` out of a."""
    return [functools.reduce(lambda f, gi: after(images[gi], f), p,
                             identity(a)) for (a, _, p) in C.gen_paths]


def random_sset_diagram(rng, bounds):
    C, generators = random_shape(rng, bounds)
    values = [random_sub_delta(rng, bounds, bounds.cap)
              for _ in range(C.n_objects)]
    gen_maps = [random_sub_delta_map(rng, values[a], values[b])
                for (a, b) in generators]
    return SSetDiagram(C, values, _along_paths(
        C, lambda a: identity_map(values[a]), compose, gen_maps))


def _catalog_category(rng, bounds):
    roll = rng.randint(0, 3)
    if roll == 0:
        return cyclic_group_category(2)
    if roll == 1:
        return indiscrete_groupoid(2)
    k = rng.randint(1, 2)
    gens = []
    for a in range(k):
        for b in range(a + 1, k):
            for _ in range(rng.randint(0, bounds.max_parallel)):
                gens.append((a, b))
    return category_from_generators(k, sorted(gens))


def random_functor(rng, A, B):
    """A functor A -> B: free domains take generator assignments, group and
    groupoid domains use a catalog of homomorphisms."""
    if hasattr(A, "gen_paths"):
        obj_map = [rng.randint(0, B.n_objects - 1)
                   for _ in range(A.n_objects)]
        # assign per generating arrow a morphism of B with correct endpoints
        gen_list = sorted((p[0], a, b) for (a, b, p) in A.gen_paths
                          if len(p) == 1)
        images = {}
        for (gi, a, b) in gen_list:
            opts = B.hom(obj_map[a], obj_map[b])
            if not opts:
                # collapse everything onto one object to stay total
                tgt = obj_map[a]
                obj_map = [tgt] * A.n_objects
                return CatFunctor(
                    A, B, obj_map,
                    [B.identity[tgt] for _ in range(A.n_morphisms)])
            images[gi] = rng.choice(opts)
        return CatFunctor(A, B, obj_map, _along_paths(
            A, lambda a: B.identity[obj_map[a]],
            lambda g, f: B.table[(g, f)], images))
    if A.n_objects == 1 and B.n_objects >= 1:
        # group source: send the generator to an invertible endomorphism
        o = rng.randint(0, B.n_objects - 1)
        endos = [m for m in B.hom(o, o)
                 if B.is_iso(m) and B.table[(m, m)] == B.identity[o]]
        g = rng.choice(endos) if endos else B.identity[o]
        mor_map = []
        for m in range(A.n_morphisms):
            mor_map.append(B.identity[o] if A.is_identity(m) else g)
        return CatFunctor(A, B, [o], mor_map)
    # indiscrete source: any object assignment extends uniquely
    obj_map = [rng.randint(0, B.n_objects - 1) for _ in range(A.n_objects)]
    mor_map = []
    for m in range(A.n_morphisms):
        a, b = A.src[m], A.tgt[m]
        opts = [x for x in B.hom(obj_map[a], obj_map[b]) if B.is_iso(x)]
        if not opts:
            o = obj_map[0]
            return CatFunctor(A, B, [o] * A.n_objects,
                              [B.identity[o]] * A.n_morphisms)
        mor_map.append(opts[0])
    F = CatFunctor(A, B, obj_map, mor_map)
    if F.validate():
        o = obj_map[0]
        return CatFunctor(A, B, [o] * A.n_objects,
                          [B.identity[o]] * A.n_morphisms)
    return F


def random_cat_diagram(rng, bounds):
    C, generators = random_shape(rng, bounds)
    values = [_catalog_category(rng, bounds) for _ in range(C.n_objects)]
    gen_functors = [random_functor(rng, values[a], values[b])
                    for (a, b) in generators]
    return CatDiagram(C, values, _along_paths(
        C, lambda a: identity_functor(values[a]), compose_functors,
        gen_functors))
