"""Independent computations the benchmark checks relnerve's outputs against.

Everything here works from the generated inputs alone (categories as
src/tgt/identity/table data, simplicial values as per-degree counts) and
uses none of relnerve's constructions, so a wrong answer in the program
cannot be mirrored here.

* Nerve sizes come from hom-count matrices: the number of degree-n simplices
  of N(C) starting at object a is (A^n 1)[a], with A[a][b] = |hom(a, b)|.
* The diagonal bar construction of F over C has, in degree n,
  sum_a (A_C^n 1)[a] * |F(a)_n| simplices.
* The Grothendieck construction of a Cat-valued G has objects (c, b) and
  |hom((c, b), (d, b'))| = sum over f: c -> d of |hom_{G(d)}(G(f)(b), b')|;
  its path components come from a union-find over those objects.
"""

import hashlib


def hom_counts(C):
    """A[a][b] = number of morphisms a -> b of a finite category."""
    A = [[0] * C.n_objects for _ in range(C.n_objects)]
    for m in range(len(C.src)):
        A[C.src[m]][C.tgt[m]] += 1
    return A


def chains_from(A, cap):
    """chains[n][a] = number of composable n-strings starting at object a."""
    size = len(A)
    chains = [[1] * size]
    for _ in range(cap):
        prev = chains[-1]
        chains.append([sum(A[a][b] * prev[b] for b in range(size))
                       for a in range(size)])
    return chains


def nerve_counts(C, cap):
    """Per-degree simplex counts of the nerve N(C)."""
    return [sum(row) for row in chains_from(hom_counts(C), cap)]


def bar_counts(C, value_counts, cap):
    """Per-degree counts of the diagonal bar construction, given the
    per-degree counts of the value at each object."""
    chains = chains_from(hom_counts(C), cap)
    return [sum(chains[n][a] * value_counts[a][n]
                for a in range(C.n_objects)) for n in range(cap + 1)]


def grothendieck_hom_counts(G):
    """Hom-count matrix of the Grothendieck construction of G, with objects
    ordered (c, b) by base object, then fiber object."""
    C = G.shape
    index = {}
    for c in range(C.n_objects):
        for b in range(G.values[c].n_objects):
            index[(c, b)] = len(index)
    fiber_homs = [hom_counts(V) for V in G.values]
    A = [[0] * len(index) for _ in range(len(index))]
    for f in range(len(C.src)):
        c, d = C.src[f], C.tgt[f]
        obj_map = G.maps[f].obj_map
        for b in range(G.values[c].n_objects):
            for b2 in range(G.values[d].n_objects):
                A[index[(c, b)]][index[(d, b2)]] += \
                    fiber_homs[d][obj_map[b]][b2]
    return A


def grothendieck_nerve_counts(G, cap):
    return [sum(row) for row in chains_from(grothendieck_hom_counts(G), cap)]


def grothendieck_components(G):
    """Path components of the Grothendieck construction of G: fiber arrows
    join objects within a value, transition functors join (c, b) to
    (d, G(f)(b))."""
    C = G.shape
    index = {}
    for c in range(C.n_objects):
        for b in range(G.values[c].n_objects):
            index[(c, b)] = len(index)
    parent = list(range(len(index)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for c, V in enumerate(G.values):
        for m in range(len(V.src)):
            union(index[(c, V.src[m])], index[(c, V.tgt[m])])
    for f in range(len(C.src)):
        c, d = C.src[f], C.tgt[f]
        for b in range(G.values[c].n_objects):
            union(index[(c, b)], index[(d, G.maps[f].obj_map[b])])
    return len({find(a) for a in range(len(parent))})


# -- input fingerprints --------------------------------------------------------

def _category_data(C):
    return (C.n_objects, tuple(C.src), tuple(C.tgt), tuple(C.identity),
            tuple(sorted(C.table.items())))


def sset_data(X):
    return (X.cap, tuple(X.counts),
            tuple(tuple(map(tuple, f)) for f in X.faces[1:]),
            tuple(tuple(map(tuple, d)) for d in X.degens))


def diagram_data(D):
    """A canonical, hashable description of an SSet- or Cat-valued diagram."""
    shape = _category_data(D.shape)
    if hasattr(D.values[0], "counts"):
        values = tuple(sset_data(V) for V in D.values)
        maps = tuple(tuple(map(tuple, f.comp)) for f in D.maps)
    else:
        values = tuple(_category_data(V) for V in D.values)
        maps = tuple((tuple(F.obj_map), tuple(F.mor_map)) for F in D.maps)
    return (shape, values, maps)


def fingerprint(diagrams):
    """SHA-256 over the canonical descriptions of a list of diagrams."""
    h = hashlib.sha256()
    for D in diagrams:
        h.update(repr(diagram_data(D)).encode())
    return h.hexdigest()
