"""The classical Grothendieck construction of a Cat-valued diagram, realized
as the horizontal structure of a double category of mapping path categories.

For an arrow f of the base, the mapping path category has objects
(b0, b1) with b0 an object of the source value, b1 a morphism of the target
value starting at the transported b0; the total category's morphisms over f
are exactly these objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import CatError, CatFunctor, FinCategory


@dataclass
class MappingPathCategory:
    cat: FinCategory
    objects: list          # (b0, b1) pairs
    morphisms: list        # (src_local, tgt_local, f0, f1)
    arrow: int             # the base arrow f


def mapping_path_category(F, f):
    """P^1 of the functor F(f), as an explicit finite category."""
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
    mor_index = {m: i for i, m in enumerate(morphisms)}
    src = [m[0] for m in morphisms]
    tgt = [m[1] for m in morphisms]
    identity = [mor_index[(i, i, A.identity[b0], B.identity[B.tgt[b1]])]
                for i, (b0, b1) in enumerate(objects)]
    table = {}
    for gi, (sg, tg, g0, g1) in enumerate(morphisms):
        for hi, (sh, th, h0, h1) in enumerate(morphisms):
            if th == sg:
                table[(gi, hi)] = mor_index[(sh, tg, A.table[(g0, h0)],
                                             B.table[(g1, h1)])]
    cat = FinCategory(len(objects), src, tgt, identity, table)
    return MappingPathCategory(cat, objects, morphisms, f)


@dataclass
class DoubleCategoryData:
    object_parts: list     # FinCategory per base object
    path_cats: list        # MappingPathCategory per base arrow
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
        pc = self.path_cats[f]
        return (f, pc.objects.index((b0, B.identity[b0])))

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
        return (f21, self.path_cats[f21].objects.index((b0, comp)))


def double_category(F):
    return DoubleCategoryData(
        list(F.values),
        [mapping_path_category(F, f) for f in range(F.shape.n_morphisms)],
        F)


def audit_double_category(dd):
    """Exhaustive unit and associativity audit of the horizontal structure."""
    F = dd.diagram
    D = F.shape
    problems = []
    # s(u(x)) = t(u(x)) = x
    for c in range(D.n_objects):
        for b0 in range(F.values[c].n_objects):
            f, loc = dd.unit_of(c, b0)
            if dd.source_of(f, loc) != (c, b0) or dd.target_of(f, loc) != (c, b0):
                problems.append(("unit-endpoints", c, b0))
    # unit laws and associativity for object-level horizontal composition
    for f1 in range(D.n_morphisms):
        pc1 = dd.path_cats[f1]
        for p in range(len(pc1.objects)):
            c, b = dd.target_of(f1, p)
            fu, u = dd.unit_of(c, b)
            if dd.hcompose(fu, u, f1, p) != (f1, p):
                problems.append(("left-unit", f1, p))
            c0, b0 = dd.source_of(f1, p)
            fu0, u0 = dd.unit_of(c0, b0)
            if dd.hcompose(f1, p, fu0, u0) != (f1, p):
                problems.append(("right-unit", f1, p))
    for f1 in range(D.n_morphisms):
        for f2 in range(D.n_morphisms):
            if D.tgt[f1] != D.src[f2]:
                continue
            for f3 in range(D.n_morphisms):
                if D.tgt[f2] != D.src[f3]:
                    continue
                for p in range(len(dd.path_cats[f1].objects)):
                    for q in range(len(dd.path_cats[f2].objects)):
                        if dd.source_of(f2, q) != dd.target_of(f1, p):
                            continue
                        for r in range(len(dd.path_cats[f3].objects)):
                            if dd.source_of(f3, r) != dd.target_of(f2, q):
                                continue
                            a = dd.hcompose(f3, r, *dd.hcompose(f2, q, f1, p))
                            b = dd.hcompose(*dd.hcompose(f3, r, f2, q),
                                            f1, p)
                            if a != b:
                                problems.append(
                                    ("associativity", f1, f2, f3, p, q, r))
    return problems


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
    D = F.shape
    dd = double_category(F)
    objects = [(c, b0) for c in range(D.n_objects)
               for b0 in range(F.values[c].n_objects)]
    obj_index = {o: i for i, o in enumerate(objects)}
    morphisms = [(f, p) for f in range(D.n_morphisms)
                 for p in range(len(dd.path_cats[f].objects))]
    mor_index = {m: i for i, m in enumerate(morphisms)}
    src = [obj_index[dd.source_of(f, p)] for (f, p) in morphisms]
    tgt = [obj_index[dd.target_of(f, p)] for (f, p) in morphisms]
    identity = [mor_index[dd.unit_of(c, b0)] for (c, b0) in objects]
    table = {}
    for mi, (f1, p) in enumerate(morphisms):
        for mj, (f2, q) in enumerate(morphisms):
            if tgt[mi] == src[mj]:
                table[(mj, mi)] = mor_index[dd.hcompose(f2, q, f1, p)]
    names = ["(%s,%s)" % (D.obj_names[c],
                          F.values[c].obj_names[b0]) for (c, b0) in objects]
    total = FinCategory(len(objects), src, tgt, identity, table,
                        obj_names=names)
    proj = CatFunctor(total, D, [c for (c, _) in objects],
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
    the nerve-composed diagram."""
    from .fincat import chain_arrow, chain_object_of_key, nerve
    from .pathspace import lurie_grothendieck
    from .sset import SimplicialMap

    F = G.double.diagram
    D = F.shape
    NG = nerve(G.total, cap)
    NF = F.nerve_diagram(cap)
    R = lurie_grothendieck(NF, cap)
    NC = R.base_nerve

    fwd = []
    for n in range(cap + 1):
        row = []
        for s in NG.simplices(n):
            key = NG.key_of(n, s)
            if n == 0:
                c, x = G.objects[key[0]]
                row.append(R.total.id_of(0, (NC.id_of(0, (c,)), (x,))))
                continue
            arrows = [G.morphisms[m] for m in key]
            base_key = tuple(f for (f, _) in arrows)
            sid = NC.id_of(n, base_key)
            x0 = G.objects[G.total.src[key[0]]][1]
            phis = [G.double.path_cats[f].objects[p][1] for (f, p) in arrows]
            gamma = [NF.values[chain_object_of_key(D, base_key, n, 0)
                               ].id_of(0, (x0,))]
            for i in range(1, n + 1):
                ci = chain_object_of_key(D, base_key, n, i)
                chain = tuple(
                    F.maps[chain_arrow(D, base_key, n, j, i)].mor_map[phis[j - 1]]
                    for j in range(1, i + 1))
                gamma.append(NF.values[ci].id_of(i, chain))
            row.append(R.total.id_of(n, (sid, tuple(gamma))))
        fwd.append(row)

    bwd = []
    for n in range(cap + 1):
        row = []
        for s in R.total.simplices(n):
            sid, gamma = R.total.key_of(n, s)
            base_key = NC.key_of(n, sid)
            if n == 0:
                c = base_key[0]
                x = NF.values[c].key_of(0, gamma[0])[0]
                row.append(NG.id_of(0, (G.obj_index[c, x],)))
                continue
            mors = []
            prev_obj = NF.values[chain_object_of_key(D, base_key, n, 0)
                                 ].key_of(0, gamma[0])[0]
            for i in range(1, n + 1):
                ci = chain_object_of_key(D, base_key, n, i)
                chain = NF.values[ci].key_of(i, gamma[i])
                phi = chain[-1]
                f = base_key[i - 1]
                p = G.double.path_cats[f].objects.index((prev_obj, phi))
                mors.append(G.mor_index[f, p])
                prev_obj = F.values[ci].tgt[phi]
            row.append(NG.id_of(n, tuple(mors)))
        bwd.append(row)
    f = SimplicialMap(NG, R.total, fwd)
    g = SimplicialMap(R.total, NG, bwd)
    return f, g, NG, R
