"""The bar-construction homotopy colimit over a finite base, its comparison
into the relative nerve, the unit and counit of the rectification
adjunction, and the localized composites that compute (homotopy) colimits of
plain simplicial diagrams."""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Certificate
from .fincat import (RelNerveObject, chain_arrows, chain_objects,
                     map_over_nerve, nerve, over_constant, over_nerve)
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
    # the value at sigma(0) of each base simplex, listed once per simplex
    values = [{k: U.values[chain_objects(C, k, n)[0]] for k in NC.keys[n]}
              for n in range(cap + 1)]

    def op(n, i, d, k):
        table = values[n][k].operator(n, i, d)
        if d < 0 and not i:
            transport = U.maps[k[0]].comp[n - 1]
            table = list(map(transport.__getitem__, table))
        return [(0, table)]

    total, proj = over_nerve(
        NC, cap, lambda n, k: values[n][k].simplices(n), op)
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

    def op(n, k):
        # entry i is the i-th front face, transported along sigma(0, i)
        return [(0, list(map(f.__getitem__, front))) for f, front in
                _front_reads(U, U.values[chain_objects(C, k, n)[0]], n,
                             chain_arrows(C, k, n)[0])]

    return (map_over_nerve(bar.base_nerve, bar.total, rel.total, op), bar,
            rel)


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
            image = set(map(io.comp[n].__getitem__, bar_fib.values()))
            if image != set(rel_fib.values()) or len(image) != len(bar_fib):
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
    over, Ucat, _, objs, _ = under_nerve_sharp(C, d, cap, NC=NC)
    space = OverMappingSpace(over, OM, cap_out)
    NU, forget = over.sset, over.proj.comp
    U = FM.underlying()
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
            chain = pr2.comp[m][s]
            slice_key = NU.key_of(m, chain)
            y = Xd.op_table(n, alpha)[x]
            beta = tuple([f[front[y]] for f, front in _front_reads(
                U, Xd, m, [objs[e] for e in chain_objects(Ucat, slice_key,
                                                          m)])])
            return space.Y.sset.id_of(m, (forget[m][chain], beta))
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
    comp = []
    for n in range(cap + 1):
        row = []
        for k, fib in zip(bar.base_nerve.keys[n], bar.total.index[n].ids):
            o0 = chain_objects(C, k, n)[0]
            space = rect.spaces[o0]
            objs, arrow_keys = rect.unders[o0][2:]
            # the canonical lift of k to d/D starts at g_0 = id_d, so its
            # legs are sigma(0, i); locate (lift, id_n) in the prism
            legs = chain_arrows(C, k, n)[0]
            lift = tuple([arrow_keys[objs.index(g), e]
                          for g, e in zip(legs, k)]) if n else \
                (objs.index(legs[0]),)
            NU = space.X.sset
            prism_id = space.deltas[n].id_of(n, tuple(range(n + 1))) * \
                NU.counts[n] + NU.id_of(n, lift)
            row += [space.sset.value(n, x, n, prism_id) for x in fib]
        comp.append(row)
    target = X.sset if X.sset.cap == cap else restrict(X.sset, cap)
    return SimplicialMap(bar.total, target, comp), bar, rect


# -- localized composites ------------------------------------------------------

@dataclass
class HocolimResult:
    total: TruncSSet
    localization: Localization


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
    return HocolimResult(loc.total, loc)


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
