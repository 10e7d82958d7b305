"""Spans and counters around relnerve's public functions, for the traced run.

``Tracer.install(mods)`` replaces each traced function in every relnerve
module that binds it (a ``from .sset import product`` makes a second
binding), and each traced method on its class, with a wrapper that records
a span: name, start, end, parent span and the item being computed.  Counts
that describe the work (maps enumerated, matrix cells reduced, horn squares
checked, ...) are recorded at the same boundaries.  ``uninstall`` puts the
originals back.  Spans stay in memory until the benchmark writes them out.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its functions.
"""

import functools
import sys
import time

from oracle import sset_data

LAYERS = ("sset", "pathspace", "homology", "certify", "marked", "hocolim")


def _count(key, value_of):
    def hook(tracer, result, args):
        tracer.counts[key] += value_of(result, args)
    return hook


def _squares(result, args):
    w = result.witness
    return w[1] if isinstance(w, tuple) and w and w[0] == "squares" else 0


def _exponential_built(tracer, result, args):
    self, Y, X, cap_out = args[:4]
    tracer.counts["sset.exponential.built"] += 1
    tracer.exponential_args.append((Y, X, cap_out))


# (span name, module, attribute, hook run on (result, args) after the call)
FUNCTIONS = [
    ("sset.enumerate_maps", "sset", "enumerate_maps",
     _count("sset.enumerate_maps.maps", lambda r, a: len(r))),
    ("sset.product", "sset", "product", None),
    ("pathspace.simplicial_space", "pathspace", "simplicial_space",
     _count("pathspace.space.simplices",
            lambda r, a: sum(map(sum, r.bisset.counts)))),
    ("pathspace.relative_nerve_direct", "pathspace", "relative_nerve_direct",
     _count("pathspace.relnerve.simplices",
            lambda r, a: sum(r.total.counts))),
    ("pathspace.lurie_grothendieck", "pathspace", "lurie_grothendieck",
     _count("pathspace.relnerve.simplices",
            lambda r, a: sum(r.total.counts))),
    ("pathspace.compare_relnerve_iso", "pathspace", "compare_relnerve_iso",
     None),
    ("pathspace.fiber_at", "pathspace", "fiber_at", None),
    ("homology.homology_table", "homology", "homology_table",
     _count("homology.degrees", lambda r, a: len(r))),
    ("homology.smith_normal_form", "homology", "smith_normal_form",
     _count("homology.smith_normal_form.cells",
            lambda r, a: len(a[0]) * (len(a[0][0]) if a[0] else 0))),
    ("homology.pi0", "homology", "pi0", None),
    ("certify.identities", "certify", "check_simplicial_identities", None),
    ("certify.bisimplicial", "certify", "check_bisimplicial", None),
    ("certify.verify_iso_map", "certify", "verify_iso_map", None),
    ("certify.inner_horn_lifts", "certify", "inner_horn_lifts",
     _count("certify.horn_squares", _squares)),
    ("certify.cocartesian_fibration", "certify", "cocartesian_fibration",
     None),
    ("certify.cocartesian_edge", "certify", "cocartesian_edge",
     _count("certify.horn_squares", _squares)),
    ("marked.mark", "marked", "mark", None),
    ("marked.marked_rel_nerve", "marked", "marked_rel_nerve", None),
    ("marked.localize", "marked", "localize",
     _count("marked.localize.glued_edges", lambda r, a: len(r.glued_edges))),
    ("marked.rectify_right", "marked", "rectify_right", None),
    ("hocolim.bar_hocolim", "hocolim", "bar_hocolim",
     _count("hocolim.bar.simplices", lambda r, a: sum(r.total.counts))),
    ("hocolim.iota", "hocolim", "iota", None),
    ("hocolim.iota_fiber_bijective", "hocolim", "iota_fiber_bijective", None),
    ("hocolim.hocolim_qcat", "hocolim", "hocolim_qcat", None),
    ("hocolim.counit_w2", "hocolim", "counit_w2", None),
    ("hocolim.eta_unit", "hocolim", "eta_unit", None),
    ("classic.grothendieck_classic", "classic", "grothendieck_classic", None),
    ("fincat.nerve", "fincat", "nerve", None),
]

# (span name, module, class, method, hook); ``args`` includes ``self``
METHODS = [
    ("sset.exponential", "sset", "Exponential", "__init__",
     _exponential_built),
    ("marked.over_mapping_space", "marked", "OverMappingSpace", "__init__",
     _count("marked.over_mapping_space.maps",
            lambda r, a: sum(a[0].sset.counts))),
]

# methods called too often for a span each: counted only
COUNTED = [("sset.apply_vertex_map", "sset", "TruncSSet", "apply_vertex_map")]

# every span name, and the per-layer metrics reported for each traced run
SPAN_NAMES = [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS]
CALLS_OF = ["sset.enumerate_maps", "sset.product", "homology.smith_normal_form",
            "certify.cocartesian_edge"] + [c[0] for c in COUNTED]
COUNT_NAMES = sorted({"sset.enumerate_maps.maps", "pathspace.space.simplices",
                      "pathspace.relnerve.simplices", "homology.degrees",
                      "homology.smith_normal_form.cells",
                      "certify.horn_squares", "marked.localize.glued_edges",
                      "hocolim.bar.simplices", "sset.exponential.built",
                      "marked.over_mapping_space.maps"}
                     | {name + ".calls" for name in CALLS_OF})


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {name + ".s": "s" for name in SPAN_NAMES}
    out.update({name: "count" for name in COUNT_NAMES})
    out["sset.exponential.distinct"] = "count"
    out.update({layer + ".self_s": "s" for layer in LAYERS})
    out["bench.self_s"] = "s"
    out["trace.spans"] = "count"
    out["trace.overhead_s"] = "s"
    out["trace.overhead_share"] = "ratio"
    return out


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, item, self]
        self.stack = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.exponential_args = []
        self.item = None
        self._patches = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.item, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        span[5] = duration - span[5]     # span[5] held the children's total
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += duration

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self
        calls = name + ".calls" if name + ".calls" in self.counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                tracer.counts[calls] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, result, args)
            return result
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mods):
        """Wrap every traced name in every loaded relnerve module."""
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "relnerve" or n.startswith("relnerve.")]
        for name, module, attr, hook in FUNCTIONS:
            original = getattr(getattr(mods, module), attr)
            wrapper = self._wrap(name, original, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, module, cls, method, hook in METHODS:
            klass = getattr(getattr(mods, module), cls)
            self._set(klass, method,
                      self._wrap(name, getattr(klass, method), hook))
        for name, module, cls, method in COUNTED:
            klass = getattr(getattr(mods, module), cls)
            self._set(klass, method,
                      self._counter(name + ".calls", getattr(klass, method)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reports -----------------------------------------------------------

    def distinct_exponentials(self):
        """Mapping objects built, distinct by the content of (Y, X, cap_out)."""
        by_id = {}
        for Y, X, cap_out in self.exponential_args:
            by_id.setdefault((id(Y), id(X), cap_out), (Y, X, cap_out))
        contents = set()
        for Y, X, cap_out in by_id.values():
            contents.add((sset_data(Y), sset_data(X), cap_out))
        return len(contents)

    def metrics(self, passes):
        """Per-pass per-layer metrics from everything recorded so far."""
        self_time = {name: 0.0 for name in SPAN_NAMES}
        bench_self = 0.0
        for span in self.spans:
            if span[0] in self_time:
                self_time[span[0]] += span[5]
            else:
                bench_self += span[5]
        out = {name + ".s": t / passes for name, t in self_time.items()}
        out.update({k: v / passes for k, v in self.counts.items()})
        out["sset.exponential.distinct"] = self.distinct_exponentials()
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                t for name, t in self_time.items()
                if name.startswith(layer + ".")) / passes
        out["bench.self_s"] = bench_self / passes
        out["trace.spans"] = len(self.spans) / passes
        return out

