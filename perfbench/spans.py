"""Span recording around the public functions of each `qtradeoff` layer, and
the self-time arithmetic that turns spans into per-layer metrics.

A span is (name index, start, end, parent span index or -1, operation id).
Spans stay in memory while the operation runs and are written out once, when
it ends.
"""

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("linalg", "states", "measures", "bound", "tomo", "cli")

# Functions whose calls and self time are reported; every public function is
# traced, so the self time of the unlisted ones still lands in its layer total.
REPORTED = {
    "linalg": ("herm_eig", "DensityMatrix", "partial_trace", "spectral_fn"),
    "measures": ("report", "fidelity", "concurrence", "von_neumann_entropy",
                 "closed_form_I", "closed_form_E"),
    "tomo": ("sample_counts", "pauli_expectations", "reconstruct", "physical_spectrum",
             "bootstrap_measures", "apply_noise", "born_probabilities", "simulate_records"),
    "states": ("spdc_state", "dephase", "timebin_mix"),
    "bound": ("zeta", "zeta_inv", "simplex_grid", "grid_h_k", "oracle_zeta"),
    "cli": ("emit",),
}

# Counters recorded at the same boundaries, reported per operation.
COUNTERS = ("linalg.herm_eig.calls_dim16", "linalg.herm_eig.calls_dim4",
            "bound.zeta.points", "bound.zeta_inv.points", "bound.simplex_grid.tuples",
            "bound.oracle_zeta.empty_band_failures", "cli.emit.bytes")

PER_LAYER = (
    [f"{m}.{f}.{k}" for m, fns in REPORTED.items() for f in fns for k in ("calls", "self_s")]
    + list(COUNTERS)
    + ["bound.grid_h_k.hit_ratio", "cli.import_s"]
    + [f"{m}.self_s" for m in LAYERS]
    + ["trace.spans", "trace.overhead_ratio"]
)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "bytes" if metric.endswith(".bytes") else "count"


class Recorder:
    """Spans and counters of one traced operation."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.names = []
        self.spans = []
        self.counters = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        """fn, recording a span per call; `count(counters, args, result, exc)`
        updates counters after each call."""
        idx = len(self.names)
        self.names.append(name)
        spans, stack, counters, op = self.spans, self._stack, self.counters, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(i)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[i] = (idx, start, end, parent, op)
                if count is not None:
                    count(counters, args, result, exc)

        return traced

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters, **extra}, fh)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval that
    its direct children cover.  A span's parent is an index into `spans`."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class LayerTotals:
    """Sums over traced operations, reported as means per operation."""

    def __init__(self):
        self.ops = 0
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.spans = 0
        self.import_s = 0.0
        self.grid_misses = 0

    def add(self, trace):
        names, spans = trace["names"], trace["spans"]
        self.ops += 1
        self.spans += len(spans)
        self.import_s += trace["import_s"]
        self.counters.update(trace["counters"])
        for (name, _, _, parent, _), own in zip(spans, self_times(spans)):
            self.calls[names[name]] += 1
            self.self_s[names[name]] += own
            # simplex_grid runs under grid_h_k only when the grid cache misses
            if names[name] == "bound.simplex_grid" and parent >= 0 \
                    and names[spans[parent][0]] == "bound.grid_h_k":
                self.grid_misses += 1

    def metrics(self, overhead_ratio):
        n = max(self.ops, 1)
        out = {}
        for mod, fns in REPORTED.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = self.calls[f"{mod}.{fn}"] / n
                out[f"{mod}.{fn}.self_s"] = self.self_s[f"{mod}.{fn}"] / n
        for key in COUNTERS:
            out[key] = self.counters[key] / n
        grid_calls = self.calls["bound.grid_h_k"]
        out["bound.grid_h_k.hit_ratio"] = (
            (grid_calls - self.grid_misses) / grid_calls if grid_calls else 0.0)
        out["cli.import_s"] = self.import_s / n
        for mod in LAYERS:
            out[f"{mod}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.split(".", 1)[0] == mod) / n
        out["trace.spans"] = self.spans / n
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: out[k] for k in PER_LAYER}
