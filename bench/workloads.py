"""The three workloads: their seeded inputs, the calls into relnerve for one
item, and the checks of each item's outputs.

An item is one diagram (or one named fixture).  ``compute`` runs it through
relnerve's public functions and returns what the checks look at; ``check``
compares that against independent computations made from the inputs (see
``oracle``) or against properties the constructions must have, and returns
the list of failed checks.  Keeping the two apart lets the tests corrupt an
output and see the check fail.

Inputs.  Every random diagram is drawn in two parts.  Its *skeleton* (the
shape and the value at each object) comes from a generator seeded with the
workload's fixed skeleton seed, so every run of a workload has the same
shapes and values, and with them the same size make-up; the cost of one
diagram spans three orders of magnitude, so lists drawn whole from the run
seed differ in cost from seed to seed by more than the run-to-run noise.
The *maps* (the transition maps or functors along the generating arrows)
come from the run seed.  Both use relnerve's own generators, at the
``SuiteBounds`` defaults.
"""

import random
from dataclasses import dataclass, field

from oracle import (bar_counts, grothendieck_components,
                    grothendieck_nerve_counts, nerve_counts)

CAP = 4                    # SuiteBounds().cap
NCAP = 4                   # horn-lifting bound of the coCartesian audits
WORKLOADS = ("identity", "thomason", "cocartesian")
SKELETON_SEED = {"identity": 0, "thomason": 1, "cocartesian": 2}
SIZE = {"identity": 24, "thomason": 120, "cocartesian": 80}
QUICK_SIZE = 2


@dataclass
class Item:
    key: str
    kind: str
    data: object                              # diagram, or fixture data
    expect: dict = field(default_factory=dict)


# -- inputs ----------------------------------------------------------------------

def _sset_diagram(mods, skeleton, rng, bounds):
    """``random_sset_diagram`` with the skeleton and maps drawn apart."""
    rg, sset = mods.randomgen, mods.sset
    C, generators = rg.random_shape(skeleton, bounds)
    values = [rg.random_sub_delta(skeleton, bounds, bounds.cap)
              for _ in range(C.n_objects)]
    gen_maps = [rg.random_sub_delta_map(rng, values[a], values[b])
                for (a, b) in generators]
    maps = []
    for (a, b, path) in C.gen_paths:
        f = sset.identity_map(values[a])
        for gi in path:
            f = sset.compose(gen_maps[gi], f)
        maps.append(f)
    return mods.fincat.SSetDiagram(C, values, maps)


def _cat_diagram(mods, skeleton, rng, bounds):
    """``random_cat_diagram`` with the skeleton and functors drawn apart."""
    rg, fincat = mods.randomgen, mods.fincat
    C, generators = rg.random_shape(skeleton, bounds)
    values = [rg._catalog_category(skeleton, bounds)
              for _ in range(C.n_objects)]
    gen_functors = [rg.random_functor(rng, values[a], values[b])
                    for (a, b) in generators]
    maps = []
    for (a, b, path) in C.gen_paths:
        F = fincat.identity_functor(values[a])
        for gi in path:
            F = fincat.compose_functors(gen_functors[gi], F)
        maps.append(F)
    return fincat.CatDiagram(C, values, maps)


def random_diagrams(mods, workload, seed, count):
    bounds = mods.randomgen.SuiteBounds()
    skeleton = random.Random(SKELETON_SEED[workload])
    rng = random.Random(seed)
    draw = _sset_diagram if workload == "identity" else _cat_diagram
    return [draw(mods, skeleton, rng, bounds) for _ in range(count)]


def _cat_expect(G, cap):
    value_counts = [nerve_counts(V, cap) for V in G.values]
    return {"components": grothendieck_components(G),
            "bar": bar_counts(G.shape, value_counts, cap),
            "groth": grothendieck_nerve_counts(G, cap),
            "vertices": sum(V.n_objects for V in G.values)}


def _span_cat_diagram(mods):
    """The span fixture of criterion 5: a two-object discrete category over
    the apex, collapsed onto points; both sides are circles."""
    fc = mods.fincat
    one = fc.FinCategory(1, [0], [0], [0], {(0, 0): 0})
    two = fc.FinCategory(2, [0, 1], [0, 1], [0, 1], {(0, 0): 0, (1, 1): 1})
    collapse = fc.CatFunctor(two, one, [0, 0], [0, 0])
    return fc.CatDiagram(fc.span_category(), [one, one, two],
                         [fc.identity_functor(one), fc.identity_functor(one),
                          fc.identity_functor(two), collapse, collapse])


def _identity_arrow_diagram(mods, X, cap):
    """[1]-shaped diagram with both values X and the identity transport."""
    sset = mods.sset
    f = sset.SimplicialMap(X, X, [list(range(X.counts[n]))
                                  for n in range(cap + 1)])
    return mods.fincat.SSetDiagram(mods.fincat.arrow_category(), [X, X],
                                   [sset.identity_map(X), f,
                                    sset.identity_map(X)])


def _marked_fixture(mods, value_cat, cap):
    V = mods.fincat.nerve(value_cat, cap)
    F = _identity_arrow_diagram(mods, V, cap)
    return mods.marked.mark_diagram(F, "natural")


def make_items(mods, workload, seed, quick=False):
    """The workload's fixed input list for one seed."""
    count = QUICK_SIZE if quick else SIZE[workload]
    diagrams = random_diagrams(mods, workload, seed, count)
    if workload == "identity":
        return [Item("random-%d" % i, "identity", F,
                     {"vertices": sum(V.counts[0] for V in F.values),
                      "bar": bar_counts(F.shape, [V.counts for V in F.values],
                                        CAP)})
                for i, F in enumerate(diagrams)]
    items = [Item("random-%d" % i, workload, G, _cat_expect(G, CAP))
             for i, G in enumerate(diagrams)]
    fc = mods.fincat
    if workload == "thomason":
        G = _span_cat_diagram(mods)
        expect = _cat_expect(G, 3)
        expect["homology"] = [(1, []), (1, []), (0, [])]   # a circle
        items.append(Item("span", "thomason-span", G, expect))
        return items
    cats = [("arrow", fc.arrow_category()),
            ("c2", fc.cyclic_group_category(2))]
    for name, cat in cats:
        items.append(Item("c7-" + name, "c7",
                          _marked_fixture(mods, cat, CAP)))
    items.append(Item("c7-negative", "c7-negative",
                      _marked_fixture(mods, fc.arrow_category(), CAP)))
    for name, cat in cats:
        FM = _marked_fixture(mods, cat, 3)
        items.append(Item("counit-" + name, "counit", FM))
        for d in (0, 1):
            items.append(Item("eta-%s-%d" % (name, d), "eta", FM, {"d": d}))
    return items


def validate(items):
    """Problems the diagrams' own ``validate()`` reports, by item key."""
    bad = {}
    for item in items:
        D = item.data
        problems = D.validate() if hasattr(D, "validate") else []
        if problems:
            bad[item.key] = problems
    return bad


# -- one item: compute ------------------------------------------------------------

def _compute_identity(mods, F):
    P, H, Cf = mods.pathspace, mods.hocolim, mods.certify
    f, g, L, R = P.compare_relnerve_iso(F, CAP)
    bar = H.bar_hocolim(F, CAP)
    S = P.simplicial_space(F, 2, 2)
    audits = [Cf.check_simplicial_identities(L.total, "relnerve"),
              Cf.check_simplicial_identities(R.total, "relnerve-direct"),
              Cf.check_simplicial_identities(bar.total, "bar"),
              Cf.check_bisimplicial(S.bisset, "space"),
              Cf.verify_iso_map(f, g, "c4-iso")]
    for c in range(F.shape.n_objects):
        fib, inc, to_value, from_value = P.fiber_at(L, c)
        audits.append(Cf.verify_iso_map(to_value, from_value, "fiber-%d" % c))
    io, _, _ = H.iota(F, CAP, bar=bar, rel=L)
    over_base = all(L.proj.comp[n][io.comp[n][s]] == bar.proj.comp[n][s]
                    for n in range(CAP + 1) for s in bar.total.simplices(n))
    fiberwise = H.iota_fiber_bijective(io, bar, L, F)
    return {"relnerve": list(L.total.counts),
            "relnerve_direct": list(R.total.counts),
            "bar": list(bar.total.counts),
            "audits": [(c.ok, c.line()) for c in audits],
            "iota": [("validates", io.validate() == []),
                     ("over-base", over_base),
                     ("fiberwise-bijective", fiberwise)]}


def _compute_thomason(mods, G, cap):
    H, hom = mods.hocolim, mods.homology
    bar = H.bar_hocolim(G.nerve_diagram(cap), cap)
    NG = mods.fincat.nerve(mods.classic.grothendieck_classic(G).total, cap)
    return {"bar": list(bar.total.counts), "groth": list(NG.counts),
            "h_bar": hom.homology_table(bar.total, cap - 1),
            "h_groth": hom.homology_table(NG, cap - 1)}


def _compute_cocartesian(mods, G):
    M = mods.marked
    NF = G.nerve_diagram(CAP)
    OM, R = M.marked_rel_nerve(M.mark_diagram(NF, "natural"), CAP)
    cert = mods.certify.cocartesian_fibration(OM.proj, NCAP)
    hq = mods.hocolim.hocolim_qcat(NF, CAP)
    return {"fibration": (cert.ok, cert.line()),
            "vertices": R.total.counts[0],
            "components": len(mods.homology.pi0(hq.total))}


def _compute_c7(mods, FM):
    """Criterion 7: the projection is a coCartesian fibration and every
    marked edge is coCartesian, at NCAP."""
    Cf = mods.certify
    OM, R = mods.marked.marked_rel_nerve(FM, CAP)
    certs = [Cf.cocartesian_fibration(OM.proj, NCAP)]
    certs += [Cf.cocartesian_edge(OM.proj, e, NCAP)
              for e in sorted(OM.marked.marked)]
    return {"audits": [(c.ok, c.line()) for c in certs]}


def _compute_negative(mods, FM):
    """Criterion 7's negative control: the walking arrow in the fiber over
    the base edge is unmarked and not coCartesian."""
    OM, R = mods.marked.marked_rel_nerve(FM, CAP)
    V = FM.underlying().values[1]
    NC = R.base_nerve
    arrow = V.id_of(1, (1,))
    bad = next((s for s in OM.sset.simplices(1)
                if NC.key_of(1, OM.sset.key_of(1, s)[0]) == (1,)
                and OM.sset.key_of(1, s)[1][1] == arrow), None)
    if bad is None:
        return {"edge": None}
    cert = mods.certify.cocartesian_edge(OM.proj, bad, 2)
    return {"edge": bad, "marked": bad in OM.marked.marked,
            "verdict": cert.verdict, "bound": cert.bound}


def _compute_counit(mods, FM):
    """Criterion 10's counit, at cap_out 2."""
    OM, R = mods.marked.marked_rel_nerve(FM, 3)
    w2, bar, rect = mods.hocolim.counit_w2(OM, 2)
    over_base = all(OM.proj.comp[n][w2.comp[n][s]] == bar.proj.comp[n][s]
                    for n in range(3) for s in bar.total.simplices(n))
    return {"validates": w2.validate() == [], "over_base": over_base,
            "vertex_image": sorted(set(w2.comp[0])),
            "vertices": OM.sset.counts[0]}


def _compute_eta(mods, FM, d):
    """Criterion 10's unit at cap_out 1: evaluating eta(x) at the identity
    of d/D and the top simplex of Delta[n] gives back x."""
    eta, space, OM, R = mods.hocolim.eta_unit(FM, d, 1)
    C = FM.shape
    over, Ucat, forget, objs, keys = mods.marked.under_nerve_sharp(
        C, d, FM.cap, NC=R.base_nerve)
    NU = space.X.sset
    idvert = NU.id_of(0, (objs.index(C.identity[d]),))
    back = []
    for n in range(2):
        dn = space.deltas[n]
        idn = dn.id_of(n, tuple(range(n + 1)))
        cur = idvert
        for deg in range(n):
            cur = NU.degens[deg][0][cur]
        for x in FM.underlying().values[d].simplices(n):
            table = space.table(n, eta.comp[n][x])
            sid, beta = OM.sset.key_of(n, table[n][idn * NU.counts[n] + cur])
            back.append(beta[n] == x)
    return {"validates": eta.validate() == [], "unit": all(back)}


def compute(mods, item):
    kind, D = item.kind, item.data
    if kind == "identity":
        return _compute_identity(mods, D)
    if kind == "thomason":
        return _compute_thomason(mods, D, CAP)
    if kind == "thomason-span":
        return _compute_thomason(mods, D, 3)
    if kind == "cocartesian":
        return _compute_cocartesian(mods, D)
    if kind == "c7":
        return _compute_c7(mods, D)
    if kind == "c7-negative":
        return _compute_negative(mods, D)
    if kind == "counit":
        return _compute_counit(mods, D)
    return _compute_eta(mods, D, item.expect["d"])


# -- one item: check ----------------------------------------------------------------

def _audits(out, audits):
    out += [line for ok, line in audits if not ok]


def check(item, obs):
    """The failed checks of one item's outputs, as readable lines."""
    out = []
    kind, want = item.kind, item.expect

    def expect(label, got, wanted):
        if got != wanted:
            out.append("%s: got %r, want %r" % (label, got, wanted))

    if kind == "identity":
        expect("relnerve counts equal", obs["relnerve_direct"],
               obs["relnerve"])
        expect("relnerve vertices", obs["relnerve"][0], want["vertices"])
        expect("bar counts", obs["bar"], want["bar"])
        _audits(out, obs["audits"])
        out += ["iota " + name for name, ok in obs["iota"] if not ok]
    elif kind in ("thomason", "thomason-span"):
        expect("homology agreement", obs["h_groth"], obs["h_bar"])
        expect("H_0", obs["h_bar"][0], (want["components"], []))
        expect("bar counts", obs["bar"], want["bar"])
        expect("Grothendieck nerve counts", obs["groth"], want["groth"])
        if "homology" in want:
            expect("span homology", obs["h_bar"], want["homology"])
    elif kind == "cocartesian":
        _audits(out, [obs["fibration"]])
        expect("relnerve vertices", obs["vertices"], want["vertices"])
        expect("hocolim components", obs["components"], want["components"])
    elif kind == "c7":
        _audits(out, obs["audits"])
    elif kind == "c7-negative":
        if obs["edge"] is None:
            out.append("negative control: no fiber edge found")
        else:
            expect("negative control marked", obs["marked"], False)
            expect("negative control verdict", obs["verdict"], "FAIL")
            expect("negative control bound", obs["bound"], 2)
    elif kind == "counit":
        expect("counit validates", obs["validates"], True)
        expect("counit over the base", obs["over_base"], True)
        expect("counit vertex image", obs["vertex_image"],
               list(range(obs["vertices"])))
    else:
        expect("unit validates", obs["validates"], True)
        expect("unit composes to the identity", obs["unit"], True)
    return out
