"""Batch front end: parse a diagram spec, run constructions, verifications
and comparisons, and emit deterministic line-oriented reports.

Exit codes: 0 all verdicts PASS, 1 a verification failed, 2 parse error,
3 truncation validity-bound violation or refused suite bounds.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace

from .certify import (check_bisimplicial, check_simplicial_identities,
                      cocartesian_edge, cocartesian_fibration, verify_iso_map)
from .classic import grothendieck_classic
from .fincat import nerve
from .hocolim import (bar_hocolim, colim_via_marked, hocolim_qcat, iota,
                      iota_audit)
from .homology import format_homology, homology_table, pi0
from .marked import MarkedSSet, localize, mark_diagram, marked_rel_nerve
from .pathspace import (compare_relnerve_iso, fiber_at, lurie_grothendieck,
                        relative_nerve_direct, simplicial_space,
                        space_projection_ok)
from .randomgen import SuiteBounds, random_cat_diagram, random_sset_diagram
from .sset import TruncationError, restrict
from .specio import Report, SpecParseError, parse_spec


EXIT_OK, EXIT_FAIL, EXIT_PARSE, EXIT_BOUND = 0, 1, 2, 3


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read())


def _sizes_line(rep, label, X):
    rep.add("sizes", label, *X.counts)
    rep.add("nondegenerate", label,
            *[len(X.nondegenerate(n)) for n in range(X.cap + 1)])


def _require_kind(spec, kinds):
    if spec.kind not in kinds:
        raise SpecParseError("command needs a %s diagram, got %s"
                             % ("/".join(kinds), spec.kind))


def cmd_build(spec, what, cap, rep, dump=None):
    fails = 0
    built = None
    if what == "relnerve":
        _require_kind(spec, ("sset", "marked"))
        R = lurie_grothendieck(spec.diagram.underlying(), cap)
        _sizes_line(rep, "relnerve", R.total)
        built = R.total
    elif what == "relnerve-direct":
        _require_kind(spec, ("sset", "marked"))
        R = relative_nerve_direct(spec.diagram.underlying(), cap)
        _sizes_line(rep, "relnerve-direct", R.total)
        built = R.total
    elif what == "groth-classic":
        _require_kind(spec, ("cat",))
        G = grothendieck_classic(spec.diagram)
        rep.add("objects", len(G.objects))
        rep.add("morphisms", len(G.morphisms))
    elif what == "hocolim":
        _require_kind(spec, ("sset",))
        H = hocolim_qcat(spec.diagram, cap)
        _sizes_line(rep, "hocolim", H.total)
        rep.add("glued-edges", len(H.localization.glued_edges))
        built = H.total
    elif what == "localize":
        _require_kind(spec, ("marked",))
        if spec.diagram.shape.n_objects != 1:
            raise SpecParseError("localize expects a single-object shape")
        if cap < 1:
            raise TruncationError("localize needs cap >= 1: the marking "
                                  "lives on edges")
        # a degreewise quotient commutes with truncation; restrict refuses
        # a cap above the spec's
        V = spec.diagram.values[0]
        loc = localize(MarkedSSet(restrict(V.sset, cap), V.marked))
        _sizes_line(rep, "localized", loc.total)
        rep.add("glued-edges", len(loc.glued_edges))
        built = MarkedSSet(loc.total, loc.marked_image)
    elif what == "marked-relnerve":
        _require_kind(spec, ("marked",))
        OM, R = marked_rel_nerve(spec.diagram, cap)
        _sizes_line(rep, "marked-relnerve", OM.sset)
        rep.add("marked-edges", len(OM.marked.marked))
        built = OM.marked
    else:
        raise SpecParseError("unknown build target %r" % what)
    if dump is not None and built is not None:
        from .specio import serialize_marked, serialize_sset
        text = serialize_marked(built, "built") \
            if isinstance(built, MarkedSSet) else \
            serialize_sset(built, "built")
        with open(dump, "w", encoding="utf-8") as fh:
            fh.write(text)
    return fails


def cmd_verify(spec, what, cap, ncap, rep):
    fails = 0

    def emit(cert):
        nonlocal fails
        rep.add(cert.line())
        if not cert.ok:
            fails += 1

    if what == "identities":
        _require_kind(spec, ("sset", "marked"))
        F = spec.diagram.underlying()
        R = lurie_grothendieck(F, cap)
        emit(check_simplicial_identities(R.total, "relnerve"))
        Rd = relative_nerve_direct(F, cap)
        emit(check_simplicial_identities(Rd.total, "relnerve-direct"))
        bar = bar_hocolim(F, cap)
        emit(check_simplicial_identities(bar.total, "bar"))
        ncap2 = min(2, cap)
        mcap = min(2, F.cap - ncap2)
        S = simplicial_space(F, ncap2, mcap)
        emit(check_bisimplicial(S.bisset, "space"))
        ok = space_projection_ok(S)
        rep.add("PASS" if ok else "FAIL", "space-projection", "over-box")
        if not ok:
            fails += 1
    elif what == "c4-iso":
        _require_kind(spec, ("sset", "marked"))
        f, g, L, Rd = compare_relnerve_iso(spec.diagram.underlying(), cap)
        emit(verify_iso_map(f, g, "relnerve-comparison"))
    elif what == "fibers":
        _require_kind(spec, ("sset", "marked"))
        F = spec.diagram.underlying()
        R = lurie_grothendieck(F, cap)
        for c in range(F.shape.n_objects):
            fib, inc, ff, gg = fiber_at(R, c)
            emit(verify_iso_map(ff, gg, "fiber-%s" % spec.obj_names[c]))
    elif what == "fibration":
        _require_kind(spec, ("cat", "marked"))
        if ncap > cap:
            raise TruncationError("ncap=%d exceeds cap=%d" % (ncap, cap))
        if spec.kind == "cat":
            if cap < 2:
                raise TruncationError("the natural marking needs cap >= 2")
            FM = mark_diagram(spec.diagram.nerve_diagram(cap), "natural")
        else:
            FM = spec.diagram
        OM, R = marked_rel_nerve(FM, cap)
        emit(cocartesian_fibration(OM.proj, ncap, "projection"))
        degflags = OM.sset.degenerate_flags(1)
        for e in sorted(OM.marked.marked):
            if degflags[e]:
                continue
            emit(cocartesian_edge(OM.proj, e, ncap))
    elif what == "iota":
        _require_kind(spec, ("sset", "marked"))
        F = spec.diagram.underlying()
        emit(iota_audit(*iota(F, cap), F))
    else:
        raise SpecParseError("unknown verify target %r" % what)
    return fails


def _max_degree(args, cap):
    maxk = args.max_degree if args.max_degree is not None else cap - 1
    if maxk > cap - 1:
        raise TruncationError("homology trusted range is cap-1")
    if maxk < 0:
        raise TruncationError("max-degree must be >= 0, got %d" % maxk)
    return maxk


def cmd_compare(spec, args, cap, rep):
    fails = 0
    if args.thomason:
        _require_kind(spec, ("cat",))
        maxk = _max_degree(args, cap)
        NF = spec.diagram.nerve_diagram(cap)
        bar = bar_hocolim(NF, cap)
        G = grothendieck_classic(spec.diagram)
        NG = nerve(G.total, cap)
        hb = homology_table(bar.total, maxk)
        hn = homology_table(NG, maxk)
        for line in format_homology(hb):
            rep.add("hocolim", line)
        for line in format_homology(hn):
            rep.add("grothendieck", line)
        verdict = "PASS" if hb == hn else "FAIL"
        rep.add(verdict, "thomason-agreement", "max-degree=%d" % maxk)
        if hb != hn:
            fails += 1
    elif args.homology:
        _require_kind(spec, ("sset", "marked"))
        maxk = _max_degree(args, cap)
        F = spec.diagram.underlying()
        R = lurie_grothendieck(F, cap)
        bar = bar_hocolim(F, cap)
        hr = homology_table(R.total, maxk)
        hb = homology_table(bar.total, maxk)
        for line in format_homology(hr):
            rep.add("relnerve", line)
        for line in format_homology(hb):
            rep.add("bar", line)
        verdict = "PASS" if hr == hb else "FAIL"
        rep.add(verdict, "homology-agreement", "max-degree=%d" % maxk)
        if hr != hb:
            fails += 1
    elif args.pi0:
        _require_kind(spec, ("sset", "marked"))
        F = spec.diagram.underlying()
        R = lurie_grothendieck(F, cap)
        bar = bar_hocolim(F, cap)
        a, b = len(pi0(R.total)), len(pi0(bar.total))
        rep.add("pi0 relnerve", a)
        rep.add("pi0 bar", b)
        rep.add("PASS" if a == b else "FAIL", "pi0-agreement")
        if a != b:
            fails += 1
    else:
        _require_kind(spec, ("sset", "marked"))
        if cap < 2:
            raise TruncationError("the natural marking needs cap >= 2")
        cc = colim_via_marked(spec.diagram.underlying())
        rep.add("colim-direct", *cc.colimit.counts)
        rep.add("colim-composite", *cc.composite.counts)
        rep.add("PASS" if cc.ok else "FAIL", "colimit-composite",
                "mode=%s" % cc.mode, cc.detail)
        if not cc.ok:
            fails += 1
    return fails


def run_random_suite(seed, count, bounds, rep):
    """Seeded random battery; deterministic line output per item."""
    bounds.check()
    rng = random.Random(seed)
    fails = 0
    t_identity = 0.0
    for item in range(count):
        F = random_sset_diagram(rng, bounds)
        t0 = time.perf_counter()
        R = lurie_grothendieck(F, bounds.cap)
        Rd = relative_nerve_direct(F, bounds.cap)
        bar = bar_hocolim(F, bounds.cap)
        ncap2 = min(2, bounds.cap)
        S = simplicial_space(F, ncap2, min(2, bounds.cap - ncap2))
        certs = [check_simplicial_identities(R.total, "relnerve"),
                 check_simplicial_identities(Rd.total, "relnerve-direct"),
                 check_simplicial_identities(bar.total, "bar"),
                 check_bisimplicial(S.bisset, "space")]
        t_identity += time.perf_counter() - t0
        f, g, _, _ = compare_relnerve_iso(F, bounds.cap)
        certs.append(verify_iso_map(f, g, "relnerve-comparison"))
        for c in range(F.shape.n_objects):
            fib, inc, ff, gg = fiber_at(R, c)
            certs.append(verify_iso_map(ff, gg, "fiber-%d" % c))
        # the suite's iota line has always left out the bound
        certs.append(replace(iota_audit(*iota(F, bounds.cap, bar=bar, rel=R),
                                        F), bound=None))
        for cert in certs:
            rep.add("item", item, cert.line())
            if not cert.ok:
                fails += 1

        G = random_cat_diagram(rng, bounds)
        NF = G.nerve_diagram(bounds.cap)
        barg = bar_hocolim(NF, bounds.cap)
        Gr = grothendieck_classic(G)
        NG = nerve(Gr.total, bounds.cap)
        hb = homology_table(barg.total, bounds.cap - 1)
        hn = homology_table(NG, bounds.cap - 1)
        rep.add("item", item,
                "PASS" if hb == hn else "FAIL", "thomason-homology")
        if hb != hn:
            fails += 1
        FM = mark_diagram(NF, "natural")
        OM, _ = marked_rel_nerve(FM, bounds.cap)
        cert = cocartesian_fibration(OM.proj, 2, "projection")
        rep.add("item", item, cert.line())
        if not cert.ok:
            fails += 1
    rep.add("items", count, "failures", fails)
    print("identity-suite-seconds %.2f" % t_identity, file=sys.stderr)
    return fails


def build_parser():
    ap = argparse.ArgumentParser(
        prog="relnerve",
        description="truncated nerves, Grothendieck constructions, marked "
                    "localizations and homotopy colimits, with certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True)
        p.add_argument("--cap", type=int, default=3)
        p.add_argument("--out", default=None)

    b = sub.add_parser("build", help="run a construction and report sizes")
    b.add_argument("target", choices=["relnerve", "relnerve-direct",
                                      "groth-classic", "hocolim", "localize",
                                      "marked-relnerve"])
    b.add_argument("--dump", default=None,
                   help="also write the built object as an explicit block")
    common(b)

    v = sub.add_parser("verify", help="run a certification suite")
    v.add_argument("target", choices=["identities", "c4-iso", "fibers",
                                      "fibration", "iota"])
    v.add_argument("--ncap", type=int, default=3)
    common(v)

    c = sub.add_parser("compare", help="quantitative comparisons")
    mode = c.add_mutually_exclusive_group()
    for flag in ("--homology", "--pi0", "--thomason", "--colimit"):
        mode.add_argument(flag, action="store_true")
    c.add_argument("--max-degree", type=int, default=None,
                   dest="max_degree")
    common(c)

    r = sub.add_parser("random-suite", help="seeded random property battery")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--count", type=int, default=10)
    r.add_argument("--max-objects", type=int, default=3)
    r.add_argument("--max-parallel", type=int, default=2)
    r.add_argument("--max-nondeg", type=int, default=6)
    common(r, needs_input=False)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    rep = Report()
    try:
        if args.command == "random-suite":
            bounds = SuiteBounds(args.max_objects, args.max_parallel,
                                 args.max_nondeg, args.cap)
            try:
                bounds.check()
                if args.count < 0:
                    raise ValueError("count must be >= 0")
            except ValueError as exc:
                print("refused: %s" % exc, file=sys.stderr)
                return EXIT_BOUND
            rep.add("suite", "seed=%d" % args.seed, "count=%d" % args.count)
            fails = run_random_suite(args.seed, args.count, bounds, rep)
        else:
            spec = _load(args.input)
            for flag in ("cap", "ncap"):
                value = getattr(args, flag, 0)
                if value < 0:
                    raise TruncationError("--%s must be >= 0, got %d"
                                          % (flag, value))
            rep.add("input", "kind=%s" % spec.kind, "cap=%d" % args.cap)
            if args.command == "build":
                fails = cmd_build(spec, args.target, args.cap, rep,
                                  dump=args.dump)
            elif args.command == "verify":
                fails = cmd_verify(spec, args.target, args.cap, args.ncap,
                                   rep)
            else:
                fails = cmd_compare(spec, args, args.cap, rep)
    except SpecParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except TruncationError as exc:
        print("validity bound: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    text = rep.text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if fails == 0 else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
