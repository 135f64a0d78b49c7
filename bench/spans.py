"""Layer spans recorded from outside the package under test.

`Tracer.install` replaces every binding of each target function inside the
loaded `curvatroid` modules with a wrapper that records a span: layer name,
start, end, parent span and an optional work count. Spans stay in memory;
the worker writes them out when the round ends. `layer_metrics` turns one
round's spans into per-layer self times and counts.

A target that no longer exists (renamed or deleted by a later change) is
skipped and its layer reported as unmeasured; nothing here raises for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from time import perf_counter


def _n_bases(args, result):
    return len(result.bases)


def _n_items(args, result):
    return len(result)


def _n_cells(args, result):
    return len(result.cells)


def _cost_cells(args, result):
    return len(result.row_keys) * len(result.col_keys)


def _support(args, result):
    problem = args[0]
    return max(len(problem.row_keys), len(problem.col_keys))


# layer -> targets as (module, attribute path, count function or None).
# The root layer "cli.job" is the worker's own call to curvatroid.cli.main.
TARGETS: dict[str, list[tuple[str, str, object]]] = {
    "fileio.load": [("curvatroid.fileio", "load_input", None)],
    "matroid.build": [("curvatroid.matroid", "build_matroid", _n_bases)],
    "matroid.validate": [("curvatroid.matroid", "validate_exchange_axiom", None)],
    "curvature.pairs": [("curvatroid.curvature", "canonical_pairs", _n_items)],
    "curvature.witness": [("curvatroid.curvature", "compute_pair_witness", None)],
    "curvature.bounds": [("curvatroid.curvature", "downstep_lb_pair", None),
                         ("curvatroid.curvature", "theorem_ub_pair", None),
                         ("curvatroid.curvature", "theorem_ub_values", None)],
    "curvature.exact_pair": [("curvatroid.curvature", "exact_pair_curvature", None)],
    "curvature.coupling_table": [("curvatroid.curvature", "downstep_coupling_table",
                                  _n_cells)],
    "walk.graph": [("curvatroid.walk", "basis_graph", None)],
    "walk.kernel": [("curvatroid.walk", "transition_distribution", None)],
    "transport.cost": [("curvatroid.transport", "TransportProblem.from_distance",
                        _cost_cells)],
    "transport.solve": [("curvatroid.transport", "wasserstein1", _support)],
    "fileio.render": [("curvatroid.fileio", "*_to_obj", None),
                      ("curvatroid.fileio", "render_json", None),
                      ("curvatroid.fileio", "render_csv", None)],
}

# basis_graph builds the exchange graph on its first call for a matroid and
# returns the cached one afterwards; only the first call is a span.
FIRST_CALL_PER_ARGUMENT = {"walk.graph"}

# span record fields
LAYER, START, END, PARENT, COUNT = range(5)

# (metric, unit, better) for every per-layer metric, in report order
LAYER_METRICS = [
    ("fileio.load_s", "s", "lower"),
    ("matroid.build_s", "s", "lower"),
    ("matroid.bases", "count", "lower"),
    ("matroid.validate_s", "s", "lower"),
    ("curvature.pairs_s", "s", "lower"),
    ("curvature.pairs", "count", "lower"),
    ("curvature.witness_s", "s", "lower"),
    ("curvature.witness_calls", "count", "lower"),
    ("curvature.bounds_s", "s", "lower"),
    ("curvature.bound_calls", "count", "lower"),
    ("curvature.solves", "count", "lower"),
    ("curvature.collapsed", "count", "higher"),
    ("curvature.exact_pair_s", "s", "lower"),
    ("curvature.coupling_table_s", "s", "lower"),
    ("curvature.coupling_cells", "count", "lower"),
    ("curvature.audit_s", "s", "lower"),
    ("curvature.audit_solves", "count", "lower"),
    ("walk.graph_s", "s", "lower"),
    ("walk.kernel_s", "s", "lower"),
    ("walk.kernels_built", "count", "lower"),
    ("transport.cost_s", "s", "lower"),
    ("transport.cost_cells", "count", "lower"),
    ("transport.solve_s", "s", "lower"),
    ("transport.solves", "count", "lower"),
    ("transport.support_max", "count", "lower"),
    ("fileio.render_s", "s", "lower"),
    ("cli.job_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# the layers each metric is derived from; a metric is unmeasured when one is
DEPENDS = {
    "matroid.bases": ["matroid.build"],
    "curvature.pairs": ["curvature.pairs"],
    "curvature.witness_calls": ["curvature.witness"],
    "curvature.bound_calls": ["curvature.bounds"],
    "curvature.solves": ["curvature.exact_pair"],
    "curvature.collapsed": ["curvature.pairs", "curvature.exact_pair"],
    "curvature.coupling_cells": ["curvature.coupling_table"],
    "curvature.audit_s": ["curvature.exact_pair", "transport.cost", "transport.solve"],
    "curvature.audit_solves": ["curvature.exact_pair", "transport.solve"],
    "walk.kernels_built": ["walk.kernel"],
    "transport.cost_cells": ["transport.cost"],
    "transport.solves": ["transport.solve"],
    "transport.support_max": ["transport.solve"],
    "trace.overhead_s": ["cli.job"],
}


def _metric_layers(metric: str) -> list[str]:
    if metric in DEPENDS:
        return DEPENDS[metric]
    return [metric[:-2]]  # "<layer>_s"


class Tracer:
    """Span recorder for one round in one process (single-threaded)."""

    def __init__(self, targets: dict | None = None):
        self.targets = TARGETS if targets is None else targets
        self.spans: list[list] = []
        self.missing: list[str] = []   # "module.attr" targets not found
        self.unmeasured: set[str] = set()  # layers with no target found
        self.uncounted: set[str] = set()   # layers whose count could not be read
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, count=None, first_only: bool = False):
        spans, stack = self.spans, self._stack
        seen = weakref.WeakSet() if first_only else None

        def traced(*args, **kwargs):
            if seen is not None:
                try:
                    if args[0] in seen:
                        return fn(*args, **kwargs)
                    seen.add(args[0])
                except TypeError:
                    pass  # not weak-referenceable: record every call
            index = len(spans)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                record[START] = start
                stack.pop()
            if count is not None:
                try:
                    record[COUNT] = count(args, result)
                except (AttributeError, TypeError, IndexError):
                    self.uncounted.add(layer)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        for layer, targets in self.targets.items():
            found = 0
            for module_name, path, count in targets:
                found += self._install_one(layer, module_name, path, count)
            if not found:
                self.unmeasured.add(layer)

    def _install_one(self, layer, module_name, path, count) -> int:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{path}")
            return 0
        if path.startswith("*"):
            names = sorted(n for n in vars(module) if n.endswith(path[1:])
                           and callable(getattr(module, n)))
            if not names:
                self.missing.append(f"{module_name}.{path}")
            return sum(self._install_one(layer, module_name, n, count) for n in names)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module_name}.{path}")
            return 0
        if isinstance(raw, classmethod):
            # every caller reaches a classmethod through the class attribute
            setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__, count)))
            return 1
        wrapper = self.wrap(layer, raw, count, layer in FIRST_CALL_PER_ARGUMENT)
        # replace the binding each caller uses, not only the defining one
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "curvatroid" or name.startswith("curvatroid.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, key, wrapper)
        return 1


def layer_metrics(spans: list[list], job_factors: list[float],
                  exact_jobs: list[bool]) -> dict[str, float | int]:
    """Per-layer self times (scaled per job) and counts for one round.

    job_factors[j] scales the times of the j-th root span (job j);
    exact_jobs[j] marks the curvature jobs that solve transport, over which
    curvature.collapsed = adjacent pairs minus exact solves.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    under_exact = [False] * len(spans)
    job_of_root: dict[int, int] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            root[i] = i
            job_of_root[i] = len(job_of_root)
        else:
            root[i] = root[p]
            under_exact[i] = under_exact[p] or spans[p][LAYER] == "curvature.exact_pair"
            child_time[p] += s[END] - s[START]

    out: dict[str, float | int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    support_max = 0
    audit_s = 0.0
    audit_solves = 0
    job_pairs = [0] * len(job_of_root)
    job_solves = [0] * len(job_of_root)
    for i, s in enumerate(spans):
        layer = s[LAYER]
        job = job_of_root[root[i]]
        factor = job_factors[job]
        duration = s[END] - s[START]
        key = layer + "_s"
        out[key] = out.get(key, 0.0) + (duration - child_time[i]) * factor
        calls[layer] = calls.get(layer, 0) + 1
        counts[layer] = counts.get(layer, 0) + s[COUNT]
        if layer == "transport.solve":
            support_max = max(support_max, s[COUNT])
        if layer in ("transport.cost", "transport.solve") and not under_exact[i]:
            audit_s += duration * factor
            audit_solves += layer == "transport.solve"
        if layer == "curvature.pairs":
            job_pairs[job] += s[COUNT]
        elif layer == "curvature.exact_pair":
            job_solves[job] += 1

    out["matroid.bases"] = counts.get("matroid.build", 0)
    out["curvature.pairs"] = counts.get("curvature.pairs", 0)
    out["curvature.witness_calls"] = calls.get("curvature.witness", 0)
    out["curvature.bound_calls"] = calls.get("curvature.bounds", 0)
    out["curvature.solves"] = calls.get("curvature.exact_pair", 0)
    out["curvature.collapsed"] = sum(job_pairs[j] - job_solves[j]
                                     for j in range(len(job_pairs)) if exact_jobs[j])
    out["curvature.coupling_cells"] = counts.get("curvature.coupling_table", 0)
    out["curvature.audit_s"] = audit_s
    out["curvature.audit_solves"] = audit_solves
    out["walk.kernels_built"] = calls.get("walk.kernel", 0)
    out["transport.cost_cells"] = counts.get("transport.cost", 0)
    out["transport.solves"] = calls.get("transport.solve", 0)
    out["transport.support_max"] = support_max
    for metric, unit, _ in LAYER_METRICS:
        if unit == "s" and metric not in out:
            out[metric] = 0.0
    out.pop("trace.overhead_s", None)  # filled in from whole-round walls
    return out


def unmeasured_metrics(unmeasured_layers: set[str], uncounted_layers: set[str]) -> set[str]:
    """Metrics that cannot be trusted: a layer they read has no target, or,
    for counts, its count could not be read from a call's result."""
    out = set()
    for metric, unit, _ in LAYER_METRICS:
        layers = _metric_layers(metric)
        if any(layer in unmeasured_layers for layer in layers) or (
                unit == "count" and any(layer in uncounted_layers for layer in layers)):
            out.add(metric)
    return out
