"""Print the make-up of each workload's input list as Markdown tables.

    python3 bench/makeup.py [--seed N]

Shapes and values come from the fixed skeleton seeds, so the make-up is the
same for every run seed; only the transition maps differ.
"""

import argparse
import collections
import sys

import run
import workloads
from oracle import nerve_counts


def _hist(values):
    return ", ".join("%s: %d" % kv
                     for kv in sorted(collections.Counter(values).items()))


def makeup(mods, workload, seed):
    items = workloads.make_items(mods, workload, seed)
    diagrams = [i.data for i in items if i.kind == workload]
    cap = workloads.CAP
    shapes = [D.shape.n_objects for D in diagrams]
    values = [V for D in diagrams for V in D.values]
    if workload == "identity":
        sizes = [sum(len(V.nondegenerate(n)) for n in range(cap + 1))
                 for V in values]
        per_degree = [sum(V.counts[n] for V in values)
                      for n in range(cap + 1)]
        value_line = "nondegenerate simplices per value: " + _hist(sizes)
    else:
        kinds = ["%d obj/%d mor" % (V.n_objects, V.n_morphisms)
                 for V in values]
        counts = [nerve_counts(V, cap) for V in values]
        per_degree = [sum(c[n] for c in counts) for n in range(cap + 1)]
        value_line = "value categories: " + _hist(kinds)
    fixtures = [i.key for i in items if i.kind != workload]
    lines = ["**%s** (%d random diagrams%s)" % (
        workload, len(diagrams),
        ", plus " + ", ".join(fixtures) if fixtures else ""),
        "",
        "- objects per shape: " + _hist(shapes),
        "- " + value_line,
        "- simplices of all values, by degree 0..%d: %s"
        % (cap, " / ".join(map(str, per_degree))), ""]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        mods = run.load_relnerve()
    except run.SetupError as exc:
        print("makeup: %s" % exc, file=sys.stderr)
        return 2
    for workload in workloads.WORKLOADS:
        print(makeup(mods, workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
