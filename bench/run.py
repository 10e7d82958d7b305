"""Benchmark for relnerve: whole passes over a seeded list of diagrams.

    python3 bench/run.py --workload identity --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; relnerve is imported from its ``src``.
One process, one thread, one diagram at a time (a closed loop).  The run
sets up (imports relnerve, generates the inputs and validates them), then
makes whole passes over the workload's input list, each diagram computed
and checked, for as long as another pass fits in ``--seconds``; it never
stops inside a pass.  Each item's time is the best over the run's passes.
After every pass the run times the same set-up in a few fresh processes;
``setup_s`` is the median over these and its own set-up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics and the tracing
overhead; it writes its spans and results under ``bench/out``.  ``--quick``
makes one pass over a tiny list.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

import workloads
from tracer import Tracer, metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MODULES = ("randomgen", "fincat", "sset", "pathspace", "hocolim", "homology",
           "certify", "marked", "classic")
SETUP_BATCH = 3        # set-ups timed in fresh processes after every pass


class SetupError(Exception):
    pass


def load_relnerve():
    """Import relnerve from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        package = importlib.import_module("relnerve")
    except ImportError as exc:
        raise SetupError("cannot import relnerve from %s: %s" % (SRC, exc))
    if not os.path.realpath(package.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        raise SetupError("relnerve was imported from %s, not from %s"
                         % (package.__file__, SRC))
    return types.SimpleNamespace(**{
        m: importlib.import_module("relnerve." + m) for m in MODULES})


def set_up(workload, seed, quick):
    start = time.perf_counter()
    mods = load_relnerve()
    items = workloads.make_items(mods, workload, seed, quick)
    bad = workloads.validate(items)
    if bad:
        raise SetupError("invalid inputs: %r" % (bad,))
    return time.perf_counter() - start, mods, items


def set_up_in_child(args):
    """Set-up seconds of a fresh process, which exits once set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError("set-up process failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


def run_pass(mods, items, tracer=None):
    """One pass: per-item seconds, failed checks, and items that raised.

    A full collection before each item, outside its timing, starts every
    item from the same collector state, so that a collection set off by the
    garbage of one item is not charged to whichever item comes next.
    """
    times, failures, errors = [], [], []
    for item in items:
        gc.collect()
        if tracer is not None:
            tracer.item = item.key
            root = tracer.open("bench.item")
        start = time.perf_counter()
        try:
            obs = workloads.compute(mods, item)
            failures += ["%s: %s" % (item.key, line)
                         for line in workloads.check(item, obs)]
        except Exception as exc:    # one broken item must not end the run
            errors.append("%s: %s: %s" % (item.key, type(exc).__name__, exc))
        times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(root)
    return times, failures, errors


class Passes:
    """Wall time of each pass and of each item, and what went wrong."""

    def __init__(self, items):
        self.walls = []
        self.item_times = [[] for _ in items]
        self.failures = []
        self.errors = []

    def run(self, mods, items, tracer=None):
        start = time.perf_counter()
        times, failures, errors = run_pass(mods, items, tracer)
        self.walls.append(time.perf_counter() - start)
        for slot, t in zip(self.item_times, times):
            slot.append(t)
        self.failures += failures
        self.errors += errors

    def item_best_ms(self):
        return [1000 * min(ts) for ts in self.item_times]


def another_pass_fits(start, last, seconds):
    """Whether another pass, as long as the last one, ends within ``seconds``
    of ``start``."""
    return time.perf_counter() - start + last <= seconds


def distribution(items, times_ms):
    """Per-item reference figures: percentiles and the share of the five
    most expensive items."""
    ordered = sorted(times_ms)
    q = statistics.quantiles(ordered, n=10) if len(ordered) > 1 else ordered
    top = sorted(zip(times_ms, (i.key for i in items)), reverse=True)[:5]
    return {"items": len(ordered), "p50_ms": statistics.median(ordered),
            "geomean_ms": statistics.geometric_mean(ordered),
            "p90_ms": q[-1], "max_ms": ordered[-1],
            "total_ms": sum(ordered),
            "top5_share": sum(t for t, _ in top) / sum(ordered),
            "top5": [[k, t] for t, k in top]}


def timed_run(mods, items, args, setup_times):
    """Whole passes while another one fits in ``args.seconds``, with a few
    set-up samples from fresh processes after every pass.

    Each item's time is the best of its passes: on a shared host other
    tenants only ever add time, in slow phases that last many seconds, and
    the best of several passes is the figure that stays put from run to run.
    The typical item is their geometric mean, which weighs every diagram
    alike whatever its size; a median over the list jumps between clusters
    of diagrams of like cost from one seed to the next.  A single set-up
    (about 0.1 s) now and then takes twice as long, hence many samples
    spread over the run.
    """
    passes = Passes(items)
    start = time.perf_counter()
    while True:
        passes.run(mods, items)
        if args.quick:
            break
        setup_times += [set_up_in_child(args) for _ in range(SETUP_BATCH)]
        if not another_pass_fits(start, passes.walls[-1], args.seconds):
            break
    best = passes.item_best_ms()
    return [passes], {
        "diagrams_per_s": (1000 * len(items) / sum(best), "diagrams/s"),
        "item_ms_geomean": (statistics.geometric_mean(best), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(mods, items, seconds, quick, workload, seed):
    untraced, traced = Passes(items), Passes(items)
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        untraced.run(mods, items)
        tracer.install(mods)
        try:
            traced.run(mods, items, tracer)
        finally:
            tracer.uninstall()
        pair = untraced.walls[-1] + traced.walls[-1]
        if quick or not another_pass_fits(start, pair, seconds):
            break
    layer = tracer.metrics(len(traced.walls))
    base = min(untraced.walls)
    layer["trace.overhead_s"] = min(traced.walls) - base
    layer["trace.overhead_share"] = layer["trace.overhead_s"] / base
    units = metric_names()
    metrics = {name: (layer[name], units[name]) for name in units}
    reference = {"workload": workload, "seed": seed,
                 "untraced_pass_s": untraced.walls,
                 "traced_pass_s": traced.walls,
                 "per_item": distribution(items, untraced.item_best_ms()),
                 "metrics": layer}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d" % (workload, seed))
    with open(stem + "-result.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
    with open(stem + "-trace.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item",
                              "self"],
                   "spans": tracer.spans}, fh)
    return [untraced, traced], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one pass over a tiny input list")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the seconds it took, and exit")
    args = ap.parse_args(argv)
    try:
        setup_s, mods, items = set_up(args.workload, args.seed, args.quick)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace:
            runs, metrics = traced_run(mods, items, args.seconds,
                                       args.quick, args.workload, args.seed)
        else:
            runs, metrics = timed_run(mods, items, args, [setup_s])
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    walls = [w for r in runs for w in r.walls]
    failures = [f for r in runs for f in r.failures]
    errors = [e for r in runs for e in r.errors]
    for line in (failures + errors)[:20]:
        print("bench: FAIL %s" % line, file=sys.stderr)
    print("bench: %s seed=%d items=%d passes=%d pass_s=%s" % (
        args.workload, args.seed, len(items), len(walls),
        ",".join("%.3f" % w for w in walls)), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(items) * len(walls),
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
