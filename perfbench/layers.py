"""Outside-in layer trace of sgflow: what is wrapped, and the metrics it yields.

Every wrapped name is a module-level function, a method, or a generator of
one sgflow module, replaced at runtime in each namespace it is looked up
from; no sgflow source file changes.  The span name is
``<layer>.<qualified name>``, and each layer is one sgflow module (``quad``
is scipy's adaptive quadrature as called by ``bounds`` and the pl-probe).

Calls made inside the ``schedules``, ``problems`` and ``bounds`` layers to
the same layer are folded into the outer call (``psi_k`` calling ``psi``,
``gap`` calling ``value``, ``RateBound.evaluate`` calling its bound
function): those layers are timed and counted where they are entered.
"""

from __future__ import annotations

import importlib

from spans import Patcher, SpanLog, SpanSummary, generator_wrapper, span_wrapper
from workloads import ensemble_values

LAYERS = ("cli", "harness", "kernels", "schedules", "bounds", "quad",
          "problems", "continuous", "discrete", "estimators")

KERNEL_MODES = {
    "kernel_mb_sgd": "sgd",
    "kernel_pgd": "pgd",
    "kernel_mb_pgf": "mb-pgf",
    "kernel_time_changed": "time-changed",
    "kernel_svrg": "svrg",
    "kernel_vr_pgf": "vr-pgf",
}

# Exact counts; each must repeat bit for bit between traced runs at one seed.
COUNTS = (
    "normals_drawn",       # values yielded by _kernels._normal_chunks
    "indices_drawn",       # values yielded by _kernels._index_chunks
    "path_steps",          # sum over ensemble_run calls of n_paths * steps
    "values_stepped",      # the same times d
    "record_calls",        # _kernels._BlockRecorder.record calls
    "record_hits",         # ... of which stored a snapshot
    "kernel_ensembles",    # ensembles a kernel ran
    "fallback_ensembles",  # ensembles the per-path simulators ran
)

EXPERIMENTS = ("ball_experiment", "time_change_experiment",
               "landscape_stretch_experiment", "weak_error_experiment",
               "pl_supermartingale_probe")
_CLI_CONFIG = ("load_config", "build_problem", "build_schedules",
               "build_run_spec", "_ensemble_params", "_output_params")
_CLI_WRITE = ("_write_csv", "_write_json")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install(log: SpanLog, patcher: Patcher) -> None:
    """Wrap the sgflow names the trace covers; ``patcher`` undoes it."""
    m = {name: importlib.import_module(f"sgflow.{name}")
         for name in ("cli", "harness", "_kernels", "schedules", "bounds",
                      "problems", "continuous", "discrete", "estimators")}
    counts = log.counts

    def wrap(owners, attrs, layer, *, fold=False, after=None, generator=False):
        for owner in owners:
            for attr in attrs:
                def make(fn, attr=attr):
                    name = f"{layer}.{getattr(fn, '__qualname__', attr)}"
                    if generator:
                        return generator_wrapper(log, fn, name, layer, after=after)
                    return span_wrapper(log, fn, name, layer, fold=fold,
                                        after=after)
                patcher.replace(owner, attr, make)

    # cli
    wrap([m["cli"]], ("main", "cmd_verify") + _CLI_CONFIG + _CLI_WRITE, "cli")

    # harness
    def after_ensemble(args, kwargs, stats):
        spec = _arg(args, kwargs, 0, "spec")
        n_paths = _arg(args, kwargs, 1, "n_paths")
        counts["ensembles"] += 1
        counts["path_steps"] += n_paths * spec.total_steps
        counts["values_stepped"] += ensemble_values(spec, n_paths)
        counts["paths_diverged"] += stats.divergence_count

    def after_dispatch(args, kwargs, result):
        if result is None:
            return
        spec, gens = args[0], args[1]
        counts["kernel_ensembles"] += 1
        counts[f"kernel_values.{spec.mode}"] += ensemble_values(spec, len(gens))

    def after_reduce(args, kwargs, out):
        counts["reduce_values"] += args[1].size

    h, cli = m["harness"], m["cli"]
    wrap([h, cli], ("ensemble_run",), "harness", after=after_ensemble)
    wrap([h, cli], ("verify_bound", "_run_one_path") + EXPERIMENTS, "harness")
    wrap([h], ("_kernel_dispatch",), "harness", after=after_dispatch)
    wrap([h], ("_observable_arrays",), "harness", after=after_reduce)

    # _kernels
    k = m["_kernels"]
    wrap([k], tuple(KERNEL_MODES), "kernels")

    def count_items(key):
        def after(item):
            counts[key] += item[1].size
        return after

    wrap([k], ("_normal_chunks",), "kernels", generator=True,
         after=count_items("normals_drawn"))
    wrap([k], ("_index_chunks",), "kernels", generator=True,
         after=count_items("indices_drawn"))
    patcher.replace(k._BlockRecorder, "record",
                    lambda fn: _recorder_wrapper(log, fn))

    # schedules
    s = m["schedules"]
    wrap([s.AdjustmentSchedule], ("psi", "psi_k", "eta_k"), "schedules", fold=True)
    wrap([s.BatchSchedule], ("value", "size_at_step"), "schedules", fold=True)
    wrap([s, k, h, m["bounds"], m["continuous"]], ("phi_inverse",), "schedules",
         fold=True)
    wrap([s, h, m["bounds"]], ("phi",), "schedules", fold=True)

    # bounds and quadrature
    b = m["bounds"]
    wrap([b.RateBound], ("evaluate",), "bounds", fold=True)
    wrap([h], ("ball_bound", "equivalent_gradient_rhs",
               "landscape_stretch_reference"), "bounds", fold=True)
    wrap([b, h.integrate], ("quad",), "quad")

    # problems
    wrap([m["problems"].FiniteSumProblem],
         ("grad", "value", "gap", "component_grad", "component_value"),
         "problems", fold=True)

    # per-path simulators
    def after_em(args, kwargs, trajectory):
        counts["em_steps"] += _arg(args, kwargs, 0, "spec").n_steps

    c = m["continuous"]
    wrap([h], ("simulate_mb_pgf", "simulate_time_changed", "simulate_vr_pgf"),
         "continuous")
    wrap([c], ("euler_maruyama",), "continuous", after=after_em)
    wrap([h], ("run_mb_sgd", "run_pgd", "run_svrg_option2"), "discrete")
    wrap([c], ("sigma_mb", "sigma_vr"), "estimators")
    wrap([m["discrete"]], ("mb_estimate", "vr_estimate", "sigma_mb"),
         "estimators")


def _recorder_wrapper(log: SpanLog, fn):
    nid = log.name_index("kernels._BlockRecorder.record", "kernels")
    counts = log.counts

    def record(self, *args, **kwargs):
        before = self._cursor
        i = log.open(nid)
        try:
            fn(self, *args, **kwargs)
        finally:
            log.close(i)
        counts["record_calls"] += 1
        counts["record_hits"] += self._cursor != before

    record.__wrapped__ = fn
    return record


def exact_counts(log: SpanLog, summary: SpanSummary) -> dict[str, int]:
    """The named counts, from hooks and from span tallies."""
    c = log.counts
    out = {key: int(c[key]) for key in COUNTS if key != "fallback_ensembles"}
    out["fallback_ensembles"] = int(c["ensembles"] - c["kernel_ensembles"])
    out["schedule_calls"] = sum(summary.calls_of(n)
                                for n in summary.names_in("schedules"))
    out["bound_evaluations"] = summary.calls_of("bounds.RateBound.evaluate")
    out["quad_calls"] = summary.calls_of("quad.quad")
    out["paths_diverged"] = int(c["paths_diverged"])
    return out


def _per(value: float, count: float, scale: float = 1.0) -> float:
    return value * scale / count if count else 0.0


def layer_metrics(log: SpanLog, summary: SpanSummary) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced repetition, as name -> (value, unit)."""
    c = log.counts
    counted = exact_counts(log, summary)
    layer_self = summary.layer_self()
    ns = 1e9
    out: dict[str, tuple[float, str]] = {}
    out["kernels.draw_normal_ns"] = (
        _per(summary.self_of("kernels._normal_chunks"), c["normals_drawn"], ns), "ns")
    out["kernels.draw_index_ns"] = (
        _per(summary.self_of("kernels._index_chunks"), c["indices_drawn"], ns), "ns")
    for fn, mode in KERNEL_MODES.items():
        out[f"kernels.step_ns_per_value.{mode}"] = (
            _per(summary.self_of(f"kernels.{fn}"), c[f"kernel_values.{mode}"], ns),
            "ns")
    out["kernels.record_s"] = (summary.self_of("kernels._BlockRecorder.record"), "s")
    out["kernels.record_hit_ratio"] = (
        _per(c["record_hits"], c["record_calls"]), "ratio")

    out["schedules.calls"] = (float(counted["schedule_calls"]), "count")
    out["schedules.self_s"] = (layer_self.get("schedules", 0.0), "s")

    out["harness.ensemble_self_s"] = (summary.self_of(
        "harness.ensemble_run", "harness._kernel_dispatch",
        "harness._run_one_path"), "s")
    out["harness.reduce_ns_per_value"] = (
        _per(summary.self_of("harness._observable_arrays"), c["reduce_values"], ns),
        "ns")
    out["harness.check_s"] = (summary.self_of(
        "harness.verify_bound", *(f"harness.{e}" for e in EXPERIMENTS)), "s")
    out["harness.kernel_hit_ratio"] = (
        _per(c["kernel_ensembles"], c["ensembles"]), "ratio")
    out["harness.paths_diverged"] = (float(counted["paths_diverged"]), "count")

    out["bounds.evaluate_calls"] = (float(counted["bound_evaluations"]), "count")
    out["bounds.evaluate_s"] = (summary.total_of("bounds.RateBound.evaluate"), "s")
    out["bounds.quad_calls"] = (float(counted["quad_calls"]), "count")

    out["problems.grad_calls"] = (
        float(summary.calls_of("problems.FiniteSumProblem.grad")), "count")
    out["problems.self_s"] = (layer_self.get("problems", 0.0), "s")
    out["continuous.em_steps"] = (float(c["em_steps"]), "count")
    out["continuous.em_s"] = (summary.total_of("continuous.euler_maruyama"), "s")

    out["cli.config_s"] = (summary.self_of(*(f"cli.{n}" for n in _CLI_CONFIG)), "s")
    out["cli.write_s"] = (summary.self_of(*(f"cli.{n}" for n in _CLI_WRITE)), "s")

    for layer in LAYERS:
        out[f"layer.self_s.{layer}"] = (layer_self.get(layer, 0.0), "s")
    for key in COUNTS:
        out[f"counts.{key}"] = (float(counted[key]), "count")
    return out
