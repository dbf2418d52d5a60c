"""Span tracing of saddlereg's public functions, installed from outside the package.

`install` wraps every public function and public method of the layer modules
and rebinds each reference to it in every saddlereg module namespace, so calls
made through `from .x import f` go through the wrapper too. The objective
evaluators are closures rather than module functions; the objects returned by
`make_objective`, `make_regularized` and `mlp_objective` get their
value/gradient/hessian wrapped instead, under the layer that built them.

A span is (name, parent span, start, end); spans are kept in memory and
written out once, when the worker ends. Self time of a span is its duration
minus the durations of its direct children. Work counts that a span cannot
give by itself (rows evaluated, Newton solves converged, batch statuses, ...)
are taken from the arguments and results at the same boundary.
"""

import csv
import importlib
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "objectives", "linalg", "critical", "continuation", "optimizer",
          "sampling", "region", "mlp")

# Validation and per-element helpers called inside the hot loops; their time
# stays with the caller, and a span per call would dominate the overhead.
UNTRACED = {
    "linalg.as_vector", "linalg.check_symmetric", "linalg.symmetrize",
    "mlp.unpack_params", "mlp.pack_params",
    "region.RegionGrid.cell_center", "region.RegionGrid.cell_index",
    "critical.CriticalPointReport.to_dict", "optimizer.RegularizationEvent.to_dict",
    "optimizer.TrajectoryRecord.to_dict",
}

# Hook failures are API drift, not program failures: the count is skipped and
# the error is reported beside the metrics.
_HOOK_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = [-1]
        self.counts = Counter()
        self.hook_errors = Counter()

    def wrap(self, name, fn, hook=None, reentrant=True):
        """A span-recording stand-in for fn; hook(fn, args, kwargs, result) runs after it.

        With reentrant=False a call made while a span of the same name is the
        innermost open span runs untraced, so an evaluator that delegates to
        another evaluator counts once.
        """
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            top = stack[-1]
            if not reentrant and top >= 0 and names[top] == name:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(name)
            parents.append(top)
            starts.append(clock())
            ends.append(0.0)
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = clock()
            if hook is not None:
                try:
                    hook(fn, args, kwargs, result)
                except _HOOK_ERRORS as exc:
                    self.hook_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return result

        return traced

    def wrap_evaluators(self, layer, objective):
        """Trace value/gradient/hessian of an Objective under `layer`."""
        dim = objective.dim

        def rows(fn, args, kwargs, result):
            self.counts[f"{layer}.gradient_rows"] += int(np.size(args[0]) // dim)

        objective.value = self.wrap(f"{layer}.value", objective.value, reentrant=False)
        objective.gradient = self.wrap(f"{layer}.gradient", objective.gradient, rows,
                                       reentrant=False)
        objective.hessian = self.wrap(f"{layer}.hessian", objective.hessian, reentrant=False)
        return objective

    # -- results ------------------------------------------------------------

    def span_table(self):
        """Per span name: (calls, self seconds, inclusive seconds)."""
        n = len(self.starts)
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        table = {}
        for name, d, s in zip(self.names, dur, self_time):
            calls, self_s, incl_s = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, self_s + float(s), incl_s + float(d))
        return table

    def write_spans(self, path):
        """One row per span: id, name, parent id (-1 for a root), start and end in seconds."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "parent", "start_s", "end_s"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                writer.writerow([i, name, parent, f"{start - t0:.9f}", f"{end - t0:.9f}"])


def _hooks(tracer):
    """Work counts read at the boundary of the named span."""
    counts = tracer.counts

    def evaluators(layer):
        def hook(fn, args, kwargs, result):
            tracer.wrap_evaluators(layer, result)
        return hook

    def sym_eigen(fn, args, kwargs, result):
        counts["linalg.sym_eigen_ops_computed"] += int(np.shape(args[0])[0]) ** 3

    def newton(fn, args, kwargs, result):
        counts["critical.newton_converged"] += int(bool(result[1]))

    def trace(fn, args, kwargs, result):
        counts["continuation.samples"] += len(result.samples)
        counts["continuation.folds"] += int(bool(result.fold))

    def run(fn, args, kwargs, result):
        counts["optimizer.iters"] += int(result.n_iters)
        counts["optimizer.events"] += len(result.events)

    def batch(fn, args, kwargs, result):
        counts["sampling.batch_rows"] += len(result["status"])
        for status, n in Counter(result["status"].tolist()).items():
            counts[f"sampling.rows.{status}"] += n

    def milnor(fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        counts["sampling.milnor_draws"] += int(bound.arguments["n_l"])

    def region(fn, args, kwargs, result):
        counts["region.cells"] += int(result.inside.size)
        counts["region.inside_cells"] += int(result.inside.sum())
        counts["region.boundary_cells"] += int(result.boundary.sum())

    def save_csv(fn, args, kwargs, result):
        counts["region.save_csv_rows"] += int(args[0].inside.size)

    def boundary_check(fn, args, kwargs, result):
        counts["region.boundary_violations"] += len(result[1])

    hooks = {
        "objectives.make_objective": evaluators("objectives"),
        "objectives.make_regularized": evaluators("objectives"),
        "mlp.mlp_objective": evaluators("mlp"),
        "linalg.sym_eigen": sym_eigen,
        "critical.newton_root": newton,
        "continuation.continuation_trace": trace,
        "optimizer.run_plain_gd": run,
        "optimizer.run_regularized_gd": run,
        "sampling.run_gd_batch": batch,
        "sampling.milnor_sample": milnor,
        "region.theta_region": region,
        "region.RegionGrid.save_csv": save_csv,
        "region.check_boundary_assumption": boundary_check,
    }
    return hooks


def install(tracer):
    """Wrap the public functions and methods of every layer module."""
    import saddlereg

    hooks = _hooks(tracer)
    modules = {layer: importlib.import_module(f"saddlereg.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isclass(obj):
                if obj.__module__ != mod.__name__:
                    continue
                for meth, fn in list(vars(obj).items()):
                    name = f"{layer}.{attr}.{meth}"
                    if meth.startswith("_") or not inspect.isfunction(fn) or name in UNTRACED:
                        continue
                    setattr(obj, meth, tracer.wrap(name, fn, hooks.get(name)))
            elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, hooks.get(name)))
    for mod in [saddlereg, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])


# -- per-layer metrics ----------------------------------------------------------
# Every `_s` metric sums the self time of the spans listed for it, except the
# two in INCLUSIVE_TIME, which sum whole spans: building the corpus and
# forming the network Hessian are costs a user waits for as one step, whatever
# layer does the arithmetic.

CALLS = {
    "objectives.value_calls": ("objectives.value",),
    "objectives.gradient_calls": ("objectives.gradient",),
    "objectives.hessian_calls": ("objectives.hessian",),
    "linalg.sym_eigen_calls": ("linalg.sym_eigen",),
    "linalg.fd_hessian_calls": ("linalg.fd_hessian",),
    "critical.find_calls": ("critical.find_critical_points",),
    "critical.newton_calls": ("critical.newton_root",),
    "critical.classify_calls": ("critical.classify_point",),
    "continuation.trace_calls": ("continuation.continuation_trace",),
    "optimizer.run_calls": ("optimizer.run_plain_gd", "optimizer.run_regularized_gd"),
    "sampling.batch_calls": ("sampling.run_gd_batch",),
    "region.contains_point_calls": ("region.RegionGrid.contains_point",),
    "mlp.value_calls": ("mlp.value",),
    "mlp.gradient_calls": ("mlp.gradient",),
    "cli.ops": ("cli.main",),
    "cli.write_json_calls": ("cli.write_json",),
}

SELF_TIME = {
    "objectives.eval_s": ("objectives.value", "objectives.gradient", "objectives.hessian"),
    "linalg.sym_eigen_s": ("linalg.sym_eigen",),
    "linalg.fd_hessian_s": ("linalg.fd_hessian",),
    "critical.find_s": ("critical.find_critical_points", "critical.solve_gradient_equation"),
    "critical.newton_s": ("critical.newton_root",),
    "critical.classify_s": ("critical.classify_point", "critical.classify_eigenvalues",
                            "critical.hessian_stratum"),
    "continuation.trace_s": ("continuation.continuation_trace",),
    "optimizer.run_s": ("optimizer.run_plain_gd", "optimizer.run_regularized_gd",
                        "optimizer.resolve_gamma"),
    "sampling.batch_s": ("sampling.run_gd_batch",),
    "sampling.milnor_s": ("sampling.milnor_sample",),
    "sampling.sample_s": ("sampling.sample_in_box", "sampling.sample_in_region",
                          "sampling.stable_set_fraction"),
    "region.theta_region_s": ("region.theta_region",),
    "region.save_csv_s": ("region.RegionGrid.save_csv",),
    "region.contains_point_s": ("region.RegionGrid.contains_point",),
    "region.boundary_check_s": ("region.check_boundary_assumption", "region.boundary_classify",
                                "region.RegionGrid.boundary_cell_centers"),
    "mlp.value_s": ("mlp.value",),
    "mlp.gradient_s": ("mlp.gradient",),
    "cli.write_json_s": ("cli.write_json",),
}

INCLUSIVE_TIME = {
    "objectives.corpus_s": ("objectives.corpus",),
    "mlp.hessian_s": ("mlp.hessian",),
}

# Counts taken by the hooks above; absent means the work was not done.
HOOK_COUNTS = (
    "objectives.gradient_rows", "linalg.sym_eigen_ops_computed", "critical.newton_converged",
    "continuation.samples", "continuation.folds", "optimizer.iters", "optimizer.events",
    "sampling.batch_rows", "sampling.rows.converged", "sampling.rows.diverged",
    "sampling.rows.max_iters", "sampling.rows.numerical_failure", "sampling.milnor_draws",
    "region.cells", "region.inside_cells", "region.boundary_cells", "region.save_csv_rows",
    "region.boundary_violations",
)


def layer_metrics(tracer):
    """Per-layer work counts and times of one traced worker."""
    table = tracer.span_table()

    def total(names, column):
        return sum(table[n][column] for n in names if n in table)

    out = {m: total(names, 0) for m, names in CALLS.items()}
    out.update({m: total(names, 1) for m, names in SELF_TIME.items()})
    out.update({m: total(names, 2) for m, names in INCLUSIVE_TIME.items()})
    out.update({m: tracer.counts[m] for m in HOOK_COUNTS})
    out["cli.self_s"] = sum(s for name, (_, s, _) in table.items()
                            if name.startswith("cli.") and name != "cli.write_json")
    calls = out["critical.newton_calls"]
    out["critical.newton_useful_ratio"] = out["critical.newton_converged"] / calls if calls else 0.0
    iters = out["optimizer.iters"]
    out["optimizer.us_per_iter"] = 1e6 * out["optimizer.run_s"] / iters if iters else 0.0
    out["trace.spans"] = len(tracer.starts)
    return out, table
