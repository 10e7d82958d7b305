"""The classical Grothendieck construction of a Cat-valued diagram, realized
as the horizontal structure of a double category of mapping path categories.

For an arrow f of the base, the mapping path category has objects
(b0, b1) with b0 an object of the source value, b1 a morphism of the target
value starting at the transported b0; the total category's morphisms over f
are exactly these objects.  The horizontal structure reads nothing else of
the mapping path categories, so only their objects are built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (CatError, CatFunctor, FinCategory, chain_arrows,
                     chain_objects, keyed_category, nerve, validate_category)
from .pathspace import lurie_grothendieck
from .sset import SimplicialMap


@dataclass
class PathObjects:
    """The objects of the mapping path category P^1 of F(f), all that the
    horizontal structure reads of it."""
    objects: list          # (b0, b1) pairs
    index: dict            # object -> its position in ``objects``


@dataclass
class DoubleCategoryData:
    path_cats: list        # PathObjects per base arrow
    diagram: object

    def source_of(self, f, local):
        """s on M-objects: (b0, b1) -> b0 in F(src f)."""
        b0, _ = self.path_cats[f].objects[local]
        return (self.diagram.shape.src[f], b0)

    def target_of(self, f, local):
        b0, b1 = self.path_cats[f].objects[local]
        B = self.diagram.values[self.diagram.shape.tgt[f]]
        return (self.diagram.shape.tgt[f], B.tgt[b1])

    def unit_of(self, c, b0):
        """u on O-objects: (b0, id)."""
        B = self.diagram.values[c]
        f = self.diagram.shape.identity[c]
        return (f, self.path_cats[f].index[b0, B.identity[b0]])

    def hcompose(self, f2, q_local, f1, p_local):
        """Horizontal composition of M-objects over composable base arrows."""
        D = self.diagram.shape
        if D.tgt[f1] != D.src[f2]:
            raise CatError("non-composable base arrows")
        (b0, b1) = self.path_cats[f1].objects[p_local]
        (c0, c1) = self.path_cats[f2].objects[q_local]
        B1 = self.diagram.values[D.tgt[f1]]
        B2 = self.diagram.values[D.tgt[f2]]
        if c0 != B1.tgt[b1]:
            raise CatError("non-composable path objects")
        f21 = D.table[(f2, f1)]
        moved = self.diagram.maps[f2].mor_map[b1]
        comp = B2.table[(c1, moved)]
        return (f21, self.path_cats[f21].index[b0, comp])


def double_category(F):
    """The objects of the mapping path category over each base arrow,
    ordered by b0 and then by b1."""
    out_of = []
    for B in F.values:
        arrows = [[] for _ in range(B.n_objects)]
        for b1, o in enumerate(B.src):
            arrows[o].append(b1)
        out_of.append(arrows)
    path_cats = []
    for f, c in enumerate(F.shape.tgt):
        objects = [(b0, b1) for b0, o in enumerate(F.maps[f].obj_map)
                   for b1 in out_of[c][o]]
        path_cats.append(PathObjects(objects, {o: i for i, o in
                                               enumerate(objects)}))
    return DoubleCategoryData(path_cats, F)


def horizontal_category(dd):
    """The total category composed from the horizontal structure of dd:
    objects (c, b0), morphisms (f, p) the M-objects, composed by
    ``hcompose``; with the key -> id dicts of its objects and morphisms."""
    F = dd.diagram
    D = F.shape
    objects = [(c, b0) for c in range(D.n_objects)
               for b0 in range(F.values[c].n_objects)]
    morphisms = [(f, p) for f in range(D.n_morphisms)
                 for p in range(len(dd.path_cats[f].objects))]
    names = ["(%s,%s)" % (D.obj_names[c],
                          F.values[c].obj_names[b0]) for (c, b0) in objects]
    return keyed_category(objects, morphisms, lambda m: dd.source_of(*m),
                          lambda m: dd.target_of(*m),
                          lambda o: dd.unit_of(*o),
                          lambda g, f: dd.hcompose(*g, *f), obj_names=names)


def audit_double_category(dd):
    """Every unit, associativity, typing and completeness law that the
    horizontal structure breaks, as ``validate_category`` reports it on
    the total category composed from it."""
    return validate_category(horizontal_category(dd)[0])


@dataclass
class ClassicGrothendieck:
    total: FinCategory
    proj: CatFunctor
    objects: list          # (base object, fiber object)
    morphisms: list        # (base arrow, p_local)
    double: DoubleCategoryData
    obj_index: dict        # object -> its position in ``objects``
    mor_index: dict        # morphism -> its position in ``morphisms``


def grothendieck_classic(F):
    """Total category over the base, from the horizontal structure."""
    dd = double_category(F)
    total, obj_index, mor_index = horizontal_category(dd)
    objects, morphisms = list(obj_index), list(mor_index)
    proj = CatFunctor(total, F.shape, [c for (c, _) in objects],
                      [f for (f, _) in morphisms])
    return ClassicGrothendieck(total, proj, objects, morphisms, dd,
                               obj_index, mor_index)


def classical_cocartesian(G, mi):
    """The categorical opfibration criterion: the fiber component of the
    arrow is invertible."""
    (f, p) = G.morphisms[mi]
    F = G.double.diagram
    B = F.values[F.shape.tgt[f]]
    (_, b1) = G.double.path_cats[f].objects[p]
    return B.is_iso(b1)


def nerve_comparison(G, cap):
    """The mutually-inverse pair between N(total) and the relative nerve of
    the nerve-composed diagram.  A chain of arrows (f_i, (b0_i, phi_i)) of
    the total goes to its base chain and the family gamma whose i-th entry
    is the chain phi_1..phi_i, phi_j moved along sigma(j, i) into the value
    at c_i, with x_0 before it (a vertex of a nerve is its object); back,
    phi_i is the last arrow of gamma_i and b0_i the target of phi_{i-1}."""
    F = G.double.diagram
    D = F.shape
    NG = nerve(G.total, cap)
    NF = F.nerve_diagram(cap)
    R = lurie_grothendieck(NF, cap)
    NC = R.base_nerve

    def forward(n, key):
        c, x = G.objects[chain_objects(G.total, key, n)[0]]
        mors = [G.morphisms[m] for m in key] if n else []
        base = tuple(f for f, _ in mors) if n else (c,)
        phis = [G.double.path_cats[f].objects[p][1] for f, p in mors]
        arrows = chain_arrows(D, base, n)
        gamma = (x,) + tuple(NF.values[ci].id_of(i, tuple(
            F.maps[arrows[j][i]].mor_map[phis[j - 1]]
            for j in range(1, i + 1)))
            for i, ci in enumerate(chain_objects(D, base, n)) if i)
        return R.total.id_of(n, (NC.id_of(n, base), gamma))

    def backward(n, sid, gamma):
        base = NC.key_of(n, sid)
        cs = chain_objects(D, base, n)
        if not n:
            return NG.id_of(0, (G.obj_index[cs[0], gamma[0]],))
        phis = [NF.values[c].key_of(i, g)[-1]
                for i, (c, g) in enumerate(zip(cs, gamma)) if i]
        b0s = [gamma[0]] + [F.values[c].tgt[phi]
                            for c, phi in zip(cs[1:], phis)]
        return NG.id_of(n, tuple(G.mor_index[f, G.double.path_cats[f].index[
            b0, phi]] for f, b0, phi in zip(base, b0s, phis)))

    f = SimplicialMap(NG, R.total, [[forward(n, k) for k in NG.keys[n]]
                                    for n in range(cap + 1)])
    g = SimplicialMap(R.total, NG, [[backward(n, *k) for k in R.total.keys[n]]
                                    for n in range(cap + 1)])
    return f, g, NG, R
