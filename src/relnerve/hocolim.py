"""The bar-construction homotopy colimit over a finite base, its comparison
into the relative nerve, the unit and counit of the rectification
adjunction, and the localized composites that compute (homotopy) colimits of
plain simplicial diagrams."""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Certificate
from .fincat import (RelNerveObject, chain_arrow, chain_object_of_key, nerve,
                     over_constant, over_nerve)
from .marked import (MarkedSSet, Localization, OverMappingSpace,
                     colim_marked, degenerate_edges, extend_along_J,
                     localization_mediator, localize, mark_diagram,
                     marked_rel_nerve, rectify_right, under_nerve_sharp)
from .pathspace import lurie_grothendieck
from .sset import (SimplicialMap, SSetError, TruncationError, TruncSSet,
                   identity_map, restrict)


def bar_hocolim(F, cap):
    """Diagonal bar construction: n-simplices are pairs (sigma, x) with x an
    n-simplex of the value at sigma(0); the zeroth face transports x along
    the first arrow, all other operators act diagonally."""
    U = F.underlying()          # F itself unless F is marked
    C = U.shape
    U.require_cap(cap)
    NC = nerve(C, cap)

    def value(n, k):
        return U.values[chain_object_of_key(C, k, n, 0)]

    def face(n, i, k, nk):
        d = value(n, k).faces[n][i]
        if i:
            return lambda xs: map(d.__getitem__, xs)
        transport = U.maps[k[0]].comp[n - 1]
        return lambda xs: map(transport.__getitem__, map(d.__getitem__, xs))

    def degen(n, i, k, nk):
        s = value(n, k).degens[n][i]
        return lambda xs: map(s.__getitem__, xs)

    total, proj = over_nerve(
        NC, cap, lambda n, k: value(n, k).simplices(n), face, degen)
    marked = None if U is F else frozenset(
        s for s, (sid, x) in enumerate(total.keys[1])
        if x in F.values[C.src[NC.keys[1][sid][0]]].marked)
    return RelNerveObject(total, proj, NC, F, marked)


def iota(F, cap, bar=None, rel=None):
    """The comparison h!(F) -> relative nerve over the base: (sigma, x)
    goes to the tuple of transported front faces of x.  It is fiberwise
    bijective, and injective when every transition map is mono (the last
    coordinate is x transported along the whole chain); with a non-mono
    map it is in general not injective."""
    U = F.underlying()
    C = U.shape
    bar = bar if bar is not None else bar_hocolim(F, cap)
    rel = rel if rel is not None else lurie_grothendieck(U, cap)
    NC = bar.base_nerve
    comp = []
    for n in range(cap + 1):
        row, reads = [], {}
        for sid, x in bar.total.keys[n]:
            if sid not in reads:
                k = NC.keys[n][sid]
                reads[sid] = _front_reads(
                    U, U.values[chain_object_of_key(C, k, n, 0)], n,
                    [chain_arrow(C, k, n, 0, i) for i in range(n + 1)])
            beta = tuple([f[front[x]] for f, front in reads[sid]])
            row.append(rel.total.id_of(n, (sid, beta)))
        comp.append(row)
    return SimplicialMap(bar.total, rel.total, comp), bar, rel


def _front_reads(U, X, n, arrows):
    """The tables giving the front faces of the n-simplices of X, the i-th
    transported along the map of ``arrows[i]``: the i-th entry of the tuple
    at x is ``f[front[x]]`` for the i-th pair ``(f, front)``."""
    return [(U.maps[a].comp[i], X.op_table(n, tuple(range(i + 1))))
            for i, a in enumerate(arrows)]


def _fiber_defect(io, bar, rel, F):
    """The first (object, degree) whose bar fiber ``io`` does not map
    bijectively onto the relative-nerve fiber, or None."""
    for c in range(F.shape.n_objects):
        for n, (bar_fib, rel_fib) in enumerate(zip(over_constant(bar, c),
                                                   over_constant(rel, c))):
            image = set(io.comp[n][s] for s in bar_fib)
            if image != set(rel_fib) or len(image) != len(bar_fib):
                return c, n
    return None


def iota_fiber_bijective(io, bar, rel, F):
    """The comparison restricted to each fiber is a bijection onto the
    corresponding relative-nerve fiber: the ``fiber-bijective`` check of
    ``iota_audit`` alone, which the benchmark times on its own."""
    return _fiber_defect(io, bar, rel, F) is None


def iota_audit(io, bar, rel, F):
    """Certify the comparison ``io, bar, rel = iota(F, cap)``: it is
    simplicial, lies over the base, is a bijection on every fiber and, when
    every transition map of F is injective, is injective (the only case in
    which ``iota`` promises it).  A FAIL witness starts with the name of the
    check that failed."""
    U = F.underlying()

    def fail(*witness):
        return Certificate("iota-audit", "", "FAIL", witness=witness)

    bad = io.validate()
    if bad:
        return fail("simplicial", *bad[0])
    for n, row in enumerate(io.comp):
        for s, t in enumerate(row):
            if rel.proj.comp[n][t] != bar.proj.comp[n][s]:
                return fail("over-base", n, s)
    defect = _fiber_defect(io, bar, rel, U)
    if defect is not None:
        return fail("fiber-bijective", *defect)
    if all(f.is_injective() for f in U.maps):
        for n, row in enumerate(io.comp):
            if len(set(row)) != len(row):
                return fail("injective", n)
    return Certificate("iota-audit", "", "PASS", bound=io.domain.cap)


# -- unit and counit of the rectification adjunction --------------------------

def eta_unit(FM, d, cap_out):
    """The unit F(d) -> [N(d/D) sharp, relnerve(F)]^+_D.

    The value at an n-simplex x is the over-base map whose component at a
    pair (slice simplex, operator into Delta[n]) transports the restricted
    front faces of x along the slice legs.
    """
    C = FM.shape
    cap = FM.cap
    OM, R = marked_rel_nerve(FM, cap)
    NC = R.base_nerve
    over, _, forget, objs, _ = under_nerve_sharp(C, d, cap, NC=NC)
    space = OverMappingSpace(over, OM, cap_out)
    NU = over.sset
    U = FM.underlying()
    Ucat = forget.domain
    Xd = U.values[d]
    comp = []
    for n in range(cap_out + 1):
        _, pr1, pr2 = space.prisms[n]
        delta_n = space.deltas[n]

        def value(x, m, s):
            # at a prism simplex (alpha, slice chain) the x-part is
            # restricted along alpha, its front faces are transported along
            # the slice legs d -> e_i, and the resulting tuple sits over the
            # forgetful image of the chain
            alpha = delta_n.key_of(m, pr1.comp[m][s])   # [m] -> [n]
            slice_key = NU.key_of(m, pr2.comp[m][s])
            if m == 0:
                base_key = (forget.obj_map[slice_key[0]],)
            else:
                base_key = tuple(forget.mor_map[mm] for mm in slice_key)
            y = Xd.op_table(n, alpha)[x]
            beta = tuple([f[front[y]] for f, front in _front_reads(
                U, Xd, m, [objs[chain_object_of_key(Ucat, slice_key, m, i)]
                           for i in range(m + 1)])])
            sid = NC.id_of(m, base_key)
            return space.Y.sset.id_of(m, (sid, beta))
        comp.append([space.sset.id_by_values(n, lambda m, s: value(x, m, s))
                     for x in Xd.simplices(n)])
    dom = Xd if Xd.cap == cap_out else restrict(Xd, cap_out)
    eta = SimplicialMap(dom, space.sset, comp)
    return eta, space, OM, R


def counit_w2(X, cap):
    """The counit h!(h*(X)) -> X: evaluate a mapping-space simplex at the
    identity-based lift of its base chain."""
    rect = rectify_right(X, cap)
    RD = rect.diagram
    cap_out = RD.cap
    if cap > cap_out:
        raise SSetError("counit cap exceeds the rectified diagram")
    bar = bar_hocolim(RD, cap)
    C = X.shape
    NC = X.base_nerve
    comp = []
    for n in range(cap + 1):
        row = []
        for s in bar.total.simplices(n):
            sid, x = bar.total.key_of(n, s)
            k = NC.key_of(n, sid)
            o0 = chain_object_of_key(C, k, n, 0)
            space = rect.spaces[o0]
            Ucat, forget, objs, arrow_keys = rect.unders[o0]
            # locate the n-simplex (canonical lift, id_n) in the prism
            lift = _canonical_lift(Ucat, C, objs, arrow_keys, k, n)
            NU = space.X.sset
            lift_id = NU.id_of(n, lift)
            delta_n = space.deltas[n]
            idn = delta_n.id_of(n, tuple(range(n + 1)))
            prism_id = idn * NU.counts[n] + lift_id
            row.append(space.sset.value(n, x, n, prism_id))
        comp.append(row)
    target = X.sset if X.sset.cap == cap else restrict(X.sset, cap)
    return SimplicialMap(bar.total, target, comp), bar, rect


def _canonical_lift(Ucat, C, objs, arrow_keys, base_key, n):
    """The chain in d/D over a base chain starting at d with g_0 = id_d."""
    if n == 0:
        d = base_key[0]
        return (objs.index(C.identity[d]),)
    d = C.src[base_key[0]]
    legs = [C.identity[d]]
    for i in range(1, n + 1):
        legs.append(C.table[(base_key[i - 1], legs[-1])])
    key = []
    for i in range(n):
        gi = objs.index(legs[i])
        key.append(arrow_keys[(gi, base_key[i])])
    return tuple(key)


# -- localized composites ------------------------------------------------------

@dataclass
class HocolimResult:
    total: TruncSSet
    localization: Localization
    bar: RelNerveObject


def hocolim_qcat(F, cap):
    """Localized marked bar construction of the naturally marked diagram:
    mark equivalences objectwise, take the bar construction with its marking,
    forget the base, and invert the marked edges."""
    if cap < 2:
        raise TruncationError("hocolim needs cap >= 2 for the equivalence "
                              "marking")
    F.require_cap(cap)
    FM = mark_diagram(F, "natural")
    bar = bar_hocolim(FM, cap)
    M = MarkedSSet(bar.total, bar.marked | degenerate_edges(bar.total))
    loc = localize(M)
    return HocolimResult(loc.total, loc, bar)


@dataclass
class ColimComparison:
    colimit: TruncSSet
    composite: TruncSSet
    localization: Localization
    mode: str                    # "iso" | "retract"
    ok: bool
    detail: str


def colim_via_marked(F):
    """Compare the degreewise colimit with its localization under the
    natural marking (the colimit is built once, by ``colim_marked``).

    When the marked colimit carries no nondegenerate marked edges the two
    are certified degreewise isomorphic.  Otherwise the localization glues
    walking isomorphisms along edges that are already invertible; the
    certificate is then the retraction built from J-extensions (the
    "collapse the glued isomorphisms" comparison), which restricts to the
    identity on the colimit.  Everything is built at the diagram's
    own cap; the natural marking needs it to be >= 2.
    """
    if F.cap < 2:
        raise TruncationError("the natural marking needs cap >= 2")
    QM, _ = colim_marked(mark_diagram(F, "natural"))
    Q = QM.sset
    loc = localize(QM)
    if not loc.glued_edges:
        return ColimComparison(Q, loc.total, loc, "iso",
                               loc.total.counts == Q.counts,
                               "no marked edges to invert")
    # retraction: extend each glued walking iso into the colimit itself
    extensions = [extend_along_J(Q, e) for e in loc.glued_edges]
    if None in extensions:
        return ColimComparison(Q, loc.total, loc, "retract", False,
                               "no J-extension for glued edge %d"
                               % loc.glued_edges[extensions.index(None)])
    try:
        U = localization_mediator(loc, identity_map(Q), extensions)
    except SSetError:
        return ColimComparison(Q, loc.total, loc, "retract", False,
                               "retraction incomplete")
    # descend made U o p the identity; U is simplicial if the extensions are
    if U.validate():
        return ColimComparison(Q, loc.total, loc, "retract", False,
                               "retraction not simplicial")
    return ColimComparison(Q, loc.total, loc, "retract", True,
                           "identified glued isomorphisms back onto the "
                           "colimit")
