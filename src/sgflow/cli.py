"""Command-line front end: ``sgflow simulate | bound | verify | suite``.

Configs are flat sectioned key-value files (INI syntax) or JSON files with
the same section structure; see the README for the full schema.  Sections:

* ``[problem]``     — objective family and its parameters
* ``[schedule]``    — stepsize adjustment, batch and epoch settings
* ``[simulation]``  — mode, horizon, grid and start point
* ``[ensemble]``    — path count and master seed
* ``[output]``      — output directory, format, file stem
* ``[verify]``      — experiment name and its parameters (verify/suite only)

Unknown sections or keys are hard errors listing the valid choices.  All
randomness is derived from the master seed (``--seed`` overrides the config;
with neither, the fixed default ``DEFAULT_SEED = 1729`` applies — never the
wall clock), so every output is a deterministic function of (config, seed).

CSV files use '.' decimals, '\\n' line endings, a fixed column order and 17
significant digits.  Exit codes: 0 = success/pass, 1 = verification failure
or unstable run, 2 = configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
# Loaded at start-up, although bounds loads it on first use: loaded after the
# bound configs of a suite, it left the ensembles that follow peaking about
# 20 MB higher in resident memory (the allocator keeps the heap freed by then)
import scipy.integrate  # noqa: F401

from .bounds import AdmissibilityError, BoundInputs, RateBound
from .continuous import _grid_steps  # the one dt/T check, as RunSpec makes it
from .discrete import Trajectory
from .harness import (
    EnsembleDivergenceError,
    RunSpec,
    ball_experiment,
    ensemble_run,
    landscape_stretch_experiment,
    pl_supermartingale_probe,
    time_change_experiment,
    verify_bound,
    weak_error_experiment,
)
from .harness import _MODES  # the run modes RunSpec accepts
from .harness import _json_clean  # one JSON cleaner for reports and CLI payloads
from .harness import _run_one_path  # one path through the ensemble's kernel dispatch
from .problems import (
    FiniteSumProblem,
    make_isotropic_quadratic,
    make_perturbed_quadratic,
    make_spread_quadratic,
)
from .schedules import AdjustmentSchedule, BatchSchedule, StalenessSchedule, record_steps

DEFAULT_SEED = 1729

_SECTIONS = ("problem", "schedule", "simulation", "ensemble", "output", "verify")
_EXPERIMENTS = ("bound", "time-change", "landscape", "weak-error", "ball", "pl-probe")

_PROBLEM_KEYS = {
    "isotropic": {"family", "mu", "d", "sigma_star_sq", "x_star"},
    "perturbed": {"family", "h_diag", "x_star", "noise"},
    "spread": {"family", "lambda_mean", "spread", "d", "x_star"},
}
_SCHEDULE_KEYS = {"family", "a", "h", "batch_family", "b", "b0", "batch_rate", "m"}
_SIMULATION_KEYS = {"mode", "x0", "n_steps", "n_epochs", "dt", "t",
                    "record_every", "volatility"}
_ENSEMBLE_KEYS = {"n_paths", "seed"}
_OUTPUT_KEYS = {"dir", "format", "name"}
_VERIFY_KEYS = {"experiment", "kind", "slack_se", "n_checkpoints", "t_w",
                "lambda", "sigma", "tol_mult", "slope_tol", "h_list",
                "ball_mode", "t_long", "tail_fraction", "rel_tol",
                "min_pass_fraction"}


class ConfigError(Exception):
    """A configuration problem the user must fix (exit code 2)."""


# -- config loading ----------------------------------------------------------


def load_config(path) -> dict:
    """Read an INI or JSON config into {section: {key: value}}."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix.lower() == ".json":
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
        if not isinstance(raw, dict) or not all(isinstance(v, dict)
                                                for v in raw.values()):
            raise ConfigError(f"{path}: JSON config must be an object of sections")
        cfg = {str(s).lower(): {str(k).lower(): v for k, v in sec.items()}
               for s, sec in raw.items()}
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(path.read_text(), source=str(path))
        except configparser.Error as e:
            raise ConfigError(f"{path}: invalid config ({e})") from e
        cfg = {s.lower(): dict(parser.items(s)) for s in parser.sections()}
    unknown = set(cfg) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) {sorted(unknown)}; "
                          f"valid sections: {list(_SECTIONS)}")
    _check_keys(cfg.get("schedule", {}), _SCHEDULE_KEYS, "schedule")
    _check_keys(cfg.get("simulation", {}), _SIMULATION_KEYS, "simulation")
    _check_keys(cfg.get("ensemble", {}), _ENSEMBLE_KEYS, "ensemble")
    _check_keys(cfg.get("output", {}), _OUTPUT_KEYS, "output")
    _check_keys(cfg.get("verify", {}), _VERIFY_KEYS, "verify")
    fam = str(cfg.get("problem", {}).get("family", "")).strip().lower()
    if fam:
        if fam not in _PROBLEM_KEYS:
            raise ConfigError(f"unknown problem family {fam!r}; valid families: "
                              f"{sorted(_PROBLEM_KEYS)}")
        _check_keys(cfg["problem"], _PROBLEM_KEYS[fam], "problem")
    return cfg


def _check_keys(section: dict, valid: set, name: str) -> None:
    unknown = set(section) - valid
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in [{name}]; "
                          f"valid keys: {sorted(valid)}")


def _get(section: dict, key: str, conv, default=None, required=False,
         where: str = ""):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{where}]")
        return default
    try:
        return conv(section[key])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {key!r} in [{where}]: {e}") from e


def _as_float(v) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _as_step(v) -> float:
    x = _as_float(v)
    if not x > 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _dt(sim: dict, overrides: argparse.Namespace, **kw) -> float | None:
    """The integrator step: ``--dt`` if given, else ``dt`` in [simulation]."""
    dt = getattr(overrides, "dt", None)
    if dt is None:
        return _get(sim, "dt", _as_step, where="simulation", **kw)
    try:
        return _as_step(dt)
    except ValueError as e:
        raise ConfigError(f"bad value for --dt: {e}") from e


def _as_int(v) -> int:
    if isinstance(v, float) and v != int(v):
        raise ValueError(f"expected an integer, got {v}")
    return int(v)


def _as_str(v) -> str:
    return str(v).strip().lower()


def _as_vector(v) -> np.ndarray:
    if isinstance(v, (list, tuple)):
        return np.asarray([_as_float(x) for x in v])
    parts = [p for p in str(v).split(",") if p.strip()]
    if not parts:
        raise ValueError("empty vector")
    return np.asarray([_as_float(p) for p in parts])


def _as_matrix(v) -> np.ndarray:
    if isinstance(v, (list, tuple)):
        return np.atleast_2d(np.asarray(
            [[_as_float(x) for x in row] for row in v]))
    rows = [r for r in str(v).split(";") if r.strip()]
    if not rows:
        raise ValueError("empty matrix")
    return np.atleast_2d(np.asarray([_as_vector(r) for r in rows]))


def build_problem(cfg: dict) -> FiniteSumProblem:
    sec = cfg.get("problem", {})
    fam = _get(sec, "family", _as_str, required=True, where="problem")
    try:
        if fam == "isotropic":
            d = _get(sec, "d", _as_int, required=True, where="problem")
            mu = _get(sec, "mu", _as_float, required=True, where="problem")
            s2 = _get(sec, "sigma_star_sq", _as_float, default=0.0, where="problem")
            x_star = _get(sec, "x_star", _as_vector, where="problem")
            if x_star is not None and x_star.size == 1:
                x_star = np.full(d, x_star[0])
            return make_isotropic_quadratic(mu, d, x_star=x_star, sigma_star_sq=s2)
        if fam == "perturbed":
            h_diag = _get(sec, "h_diag", _as_vector, required=True, where="problem")
            noise = _get(sec, "noise", _as_matrix, required=True, where="problem")
            x_star = _get(sec, "x_star", _as_vector,
                          default=np.zeros(h_diag.size), where="problem")
            return make_perturbed_quadratic(h_diag, x_star, noise)
        # spread
        d = _get(sec, "d", _as_int, default=1, where="problem")
        lam = _get(sec, "lambda_mean", _as_float, required=True, where="problem")
        delta = _get(sec, "spread", _as_float, required=True, where="problem")
        x_star = _get(sec, "x_star", _as_vector, where="problem")
        if x_star is not None and x_star.size == 1:
            x_star = np.full(d, x_star[0])
        return make_spread_quadratic(lam, delta, d=d, x_star=x_star)
    except ValueError as e:
        raise ConfigError(f"[problem] {e}") from e


def build_schedules(cfg: dict):
    """(AdjustmentSchedule | None, BatchSchedule, m | None) from [schedule]."""
    sec = cfg.get("schedule", {})
    h = _get(sec, "h", _as_float, where="schedule")
    family = _get(sec, "family", _as_str, default="constant", where="schedule")
    a = _get(sec, "a", _as_float, where="schedule")
    bfam = _get(sec, "batch_family", _as_str, default="constant", where="schedule")
    b = _get(sec, "b", _as_int, default=1, where="schedule")
    b0 = _get(sec, "b0", _as_float, default=1.0, where="schedule")
    rate = _get(sec, "batch_rate", _as_float, default=0.0, where="schedule")
    m = _get(sec, "m", _as_int, where="schedule")
    try:
        adj = AdjustmentSchedule(h=h, family=family, a=a) if h is not None else None
        if bfam == "constant":
            batch = BatchSchedule(family="constant", b=b)
        else:
            batch = BatchSchedule(family=bfam, b0=b0, rate=rate)
    except ValueError as e:
        raise ConfigError(f"[schedule] {e}") from e
    return adj, batch, m


# the config keys each mode needs (svrg and vr-pgf check [schedule] m and h
# when they build their staleness schedule); vr-pgf takes t from n_epochs
_MODE_KEYS = {
    "sgd": (("schedule", "h"), ("simulation", "n_steps")),
    "pgd": (("schedule", "h"), ("simulation", "n_steps")),
    "mb-pgf": (("schedule", "h"), ("simulation", "dt"), ("simulation", "t")),
    "time-changed": (("schedule", "h"), ("simulation", "dt"),
                     ("simulation", "t")),
    "vr-pgf": (("simulation", "dt"), ("simulation", "t")),
}


def build_run_spec(cfg: dict, problem: FiniteSumProblem,
                   overrides: argparse.Namespace,
                   weights: bool = False) -> RunSpec:
    sec = cfg.get("simulation", {})
    mode = _get(sec, "mode", _as_str, required=True, where="simulation")
    if mode not in _MODES:
        raise ConfigError(f"unknown mode {mode!r}; valid modes: {list(_MODES)}")
    x0 = _get(sec, "x0", _as_vector, required=True, where="simulation")
    adj, batch, m = build_schedules(cfg)
    dt = _dt(sec, overrides)
    T = _get(sec, "t", _as_float, where="simulation")
    n_steps = _get(sec, "n_steps", _as_int, where="simulation")
    n_epochs = _get(sec, "n_epochs", _as_int, where="simulation")
    volatility = _get(sec, "volatility", _as_str, where="simulation")
    if volatility is not None and volatility not in ("exact", "constant"):
        raise ConfigError(f"unknown volatility {volatility!r}; "
                          "expected 'exact' or 'constant'")
    h = adj.h if adj is not None else None
    staleness = None
    if mode in ("svrg", "vr-pgf"):
        if m is None or h is None:
            raise ConfigError(f"mode {mode!r} needs keys 'm' and 'h' in [schedule]")
        if mode == "svrg" and n_epochs is None:
            raise ConfigError("mode 'svrg' needs key 'n_epochs' in [simulation]")
        staleness = StalenessSchedule(m=m, h=h)
        if mode == "vr-pgf" and n_epochs is not None:
            T = n_epochs * staleness.epoch_time
    given = {"h": h, "n_steps": n_steps, "dt": dt, "t": T}
    missing = [f"key {key!r} in [{section}]"
               for section, key in _MODE_KEYS.get(mode, ()) if given[key] is None]
    if missing:
        raise ConfigError(f"mode {mode!r} needs {' and '.join(missing)}")
    try:
        spec = RunSpec(mode=mode, problem=problem, x0=x0, adj=adj, batch=batch,
                       n_steps=n_steps, dt=dt, T=T, h=h, epoch_steps=m,
                       n_epochs=n_epochs, staleness=staleness,
                       volatility_mode=volatility, weights=weights)
        spec.record_every = _record_stride(sec, spec.total_steps)
        spec.resolved_record_ks()  # a bad record grid is a config error
    except ValueError as e:
        raise ConfigError(f"[simulation] {e}") from e
    return spec


def _record_stride(sec: dict, n_steps: int) -> int:
    """``record_every`` in [simulation]; by default about 1000 records."""
    return _get(sec, "record_every", _as_int, default=max(1, n_steps // 1000),
                where="simulation")


def _ensemble_params(cfg: dict, overrides: argparse.Namespace):
    sec = cfg.get("ensemble", {})
    n_paths = getattr(overrides, "paths", None)
    if n_paths is None:
        n_paths = _get(sec, "n_paths", _as_int, default=1, where="ensemble")
    if n_paths < 1:
        raise ConfigError(f"n_paths must be >= 1, got {n_paths}")
    seed = getattr(overrides, "seed", None)
    if seed is None:
        seed = _get(sec, "seed", _as_int, default=DEFAULT_SEED, where="ensemble")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    return n_paths, seed


def _output_params(cfg: dict, overrides: argparse.Namespace):
    sec = cfg.get("output", {})
    out_dir = getattr(overrides, "out", None) or _get(sec, "dir", str,
                                                      default=".", where="output")
    fmt = getattr(overrides, "format", None) or _get(sec, "format", _as_str,
                                                     default="csv", where="output")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")
    name = _get(sec, "name", str, where="output")
    return Path(out_dir), fmt, name


# -- emission ----------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list, columns: list) -> None:
    """Write columns (sequences of equal length) with 17-digit floats."""
    n = len(columns[0])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(col[i] if isinstance(col[i], str) else _fmt(col[i])
                              for col in columns) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_json_clean(payload), fh, indent=2)
        fh.write("\n")


# -- commands ----------------------------------------------------------------


def cmd_simulate(cfg: dict, overrides: argparse.Namespace) -> int:
    problem = build_problem(cfg)
    spec = build_run_spec(cfg, problem, overrides)
    n_paths, seed = _ensemble_params(cfg, overrides)
    out, fmt, name = _output_params(cfg, overrides)

    if n_paths == 1:
        # the single path coincides with path 0 of an ensemble run at this seed
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        # recorded on the ensemble's grid, up to any divergence
        tr: Trajectory = _run_one_path(spec, rng, spec.record_every)
        stem = name or "trajectory"
        flags = (tr.jump_flags.astype(int) if tr.jump_flags is not None
                 else np.zeros(len(tr), dtype=int))
        cols = [tr.times, tr.f_gap, tr.grad_norm_sq, tr.dist_sq]
        if fmt == "csv":
            _write_csv(out / f"{stem}.csv",
                       ["t", "f_gap", "grad_norm_sq", "dist_sq", "flags"],
                       cols + [[str(int(f)) for f in flags]])
        else:
            _write_json(out / f"{stem}.json", {
                "t": cols[0], "f_gap": cols[1],
                "grad_norm_sq": cols[2], "dist_sq": cols[3],
                "flags": flags, "diverged": tr.diverged,
                "divergence_step": tr.divergence_step, "seed": seed,
            })
        print(f"wrote {out / (stem + '.' + fmt)}")
        return 0

    stats = ensemble_run(spec, n_paths, seed)
    stem = name or "ensemble"
    if fmt == "csv":
        _write_csv(out / f"{stem}.csv",
                   ["t", "f_gap_mean", "f_gap_se", "grad_norm_sq_mean",
                    "grad_norm_sq_se", "dist_sq_mean", "dist_sq_se"],
                   [stats.grid,
                    stats.mean["f_gap"], stats.se("f_gap"),
                    stats.mean["grad_norm_sq"], stats.se("grad_norm_sq"),
                    stats.mean["dist_sq"], stats.se("dist_sq")])
    else:
        _write_json(out / f"{stem}.json", {
            "t": stats.grid, "n_paths": stats.n_paths,
            "divergence_count": stats.divergence_count, "seed": seed,
            "mean": {k: v for k, v in stats.mean.items() if k != "state"},
            "se": {k: stats.se(k) for k in stats.mean if k != "state"},
        })
    print(f"wrote {out / (stem + '.' + fmt)} "
          f"({stats.n_paths} paths, {stats.divergence_count} diverged)")
    return 0


def _rate_bound(cfg: dict, problem: FiniteSumProblem, kind: str) -> RateBound:
    """``kind`` on the config's problem, schedules and start point."""
    adj, batch, m = build_schedules(cfg)
    if adj is None:
        raise ConfigError("a rate bound needs key 'h' in [schedule]")
    x0 = _get(cfg.get("simulation", {}), "x0", _as_vector, required=True,
              where="simulation")
    return RateBound(kind, BoundInputs.from_problem(problem, x0, adj, batch, m=m))


def _bound_grid(cfg: dict, bound: RateBound,
                overrides: argparse.Namespace) -> np.ndarray:
    """The points of a bound curve: epochs, times or record steps."""
    sec = cfg.get("simulation", {})
    if bound.point == "epoch":
        n_epochs = _get(sec, "n_epochs", _as_int, where="simulation")
        if n_epochs is None:
            T = _get(sec, "t", _as_float, where="simulation")
            m = bound.inputs.m
            if T is None or m is None:
                raise ConfigError("variance-reduced bound curves need "
                                  "'n_epochs' (or 't' with [schedule] m)")
            n_epochs = math.floor(T / (m * bound.inputs.h) + 1e-9)  # whole epochs
        return np.arange(n_epochs + 1)
    if bound.is_continuous:
        dt = _dt(sec, overrides, required=True)
        T = _get(sec, "t", _as_float, required=True, where="simulation")
        n = _grid_steps(dt, T)
        return record_steps(n, _record_stride(sec, n)) * dt
    n_steps = _get(sec, "n_steps", _as_int, required=True, where="simulation")
    return record_steps(n_steps, _record_stride(sec, n_steps))


def cmd_bound(cfg: dict, kind: str, overrides: argparse.Namespace) -> int:
    problem = build_problem(cfg)
    try:
        bound = _rate_bound(cfg, problem, kind)
        points = _bound_grid(cfg, bound, overrides)
        values = bound.curve(points)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    out, fmt, name = _output_params(cfg, overrides)
    stem = name or f"bound_{kind}"
    axis = points.astype(float)
    if fmt == "csv":
        _write_csv(out / f"{stem}.csv", ["t", "bound"], [axis, values])
    else:
        _write_json(out / f"{stem}.json", {"kind": kind, "t": axis,
                                           "bound": values})
    print(f"wrote {out / (stem + '.' + fmt)}")
    return 0


def cmd_verify(cfg: dict, experiment: str, overrides: argparse.Namespace) -> int:
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; valid: "
                          f"{list(_EXPERIMENTS)}")
    vsec = cfg.get("verify", {})
    declared = _get(vsec, "experiment", _as_str, where="verify")
    if declared is not None and declared != experiment:
        raise ConfigError(f"config declares experiment {declared!r} but "
                          f"{experiment!r} was requested")
    slack = _get(vsec, "slack_se", _as_float, default=3.0, where="verify")
    n_cp = _get(vsec, "n_checkpoints", _as_int, default=30, where="verify")
    if n_cp < 1:
        raise ConfigError(f"n_checkpoints must be >= 1, got {n_cp}")
    n_paths, seed = _ensemble_params(cfg, overrides)
    if n_paths < 2 and experiment != "landscape":
        raise ConfigError(f"experiment {experiment!r} needs n_paths >= 2")
    out, fmt, name = _output_params(cfg, overrides)

    problem = build_problem(cfg)
    sim = cfg.get("simulation", {})
    stem = name or f"report_{experiment}"

    # a ValueError from the library, in setting up or in running the
    # experiment, is a problem with the config (exit 2)
    try:
        if experiment == "bound":
            kind = _get(vsec, "kind", _as_str, required=True, where="verify")
            bound = _rate_bound(cfg, problem, kind)
            bound.evaluate(1)  # a missing constant or an inadmissible h fails now
            picks = n_cp if "n_checkpoints" in vsec else None
            if picks is not None and bound.point == "epoch":  # fails now, too
                raise ConfigError(f"{kind!r} is checked at every epoch mark and "
                                  "takes no n_checkpoints")
            spec = build_run_spec(cfg, problem, overrides,
                                  weights=bound.observable.endswith("_wavg"))
            t0 = time.perf_counter()
            stats = ensemble_run(spec, n_paths, seed)
            report = verify_bound(stats, bound, slack_se=slack, n_checkpoints=picks)
            # the run, not just the check
            report.runtime_seconds = time.perf_counter() - t0
            stem = name or f"report_bound_{kind}"
            curve_stem = f"{name}_curve" if name else f"curve_{kind}"
            _write_csv(out / f"{curve_stem}.csv",
                       ["t", "empirical_mean", "se", "bound"],
                       [report.checkpoints.astype(float), report.empirical,
                        report.se, report.reference])
        elif experiment == "time-change":
            adj, _, _ = build_schedules(cfg)
            if adj is None:
                raise ConfigError("the time-change experiment needs 'h' in [schedule]")
            t_w = _get(vsec, "t_w", _as_float, required=True, where="verify")
            frac = _get(vsec, "min_pass_fraction", _as_float, default=0.95,
                        where="verify")
            x0 = _get(sim, "x0", _as_vector, required=True, where="simulation")
            dt = _dt(sim, overrides)
            report = time_change_experiment(problem, x0, adj.h, t_w, n_paths,
                                            seed, dt=dt, n_checkpoints=n_cp,
                                            slack_se=slack,
                                            min_pass_fraction=frac)
        elif experiment == "landscape":
            lam = _get(vsec, "lambda", _as_vector, required=True, where="verify")
            sigma = _get(vsec, "sigma", _as_float, default=0.0, where="verify")
            tol_mult = _get(vsec, "tol_mult", _as_float, default=5.0,
                            where="verify")
            slope_tol = _get(vsec, "slope_tol", _as_float, default=0.02,
                             where="verify")
            x0 = _get(sim, "x0", _as_vector, required=True, where="simulation")
            dt = _dt(sim, overrides, required=True)
            T = _get(sim, "t", _as_float, required=True, where="simulation")
            report = landscape_stretch_experiment(lam, x0, dt, T,
                                                  n_paths=n_paths, seed=seed,
                                                  sigma=sigma, slack_se=slack,
                                                  tol_mult=tol_mult,
                                                  slope_tol=slope_tol,
                                                  n_checkpoints=n_cp)
        elif experiment == "weak-error":
            h_list = _get(vsec, "h_list", _as_vector, required=True, where="verify")
            x0 = _get(sim, "x0", _as_vector, required=True, where="simulation")
            T = _get(sim, "t", _as_float, required=True, where="simulation")
            report = weak_error_experiment(problem, h_list, T, n_paths, seed, x0)
        elif experiment == "ball":
            adj, batch, _ = build_schedules(cfg)
            if adj is None:
                raise ConfigError("the ball experiment needs 'h' in [schedule]")
            if batch.family != "constant":
                raise ConfigError("the ball experiment needs a constant batch size")
            mode = _get(vsec, "ball_mode", _as_str, required=True, where="verify")
            t_long = _get(vsec, "t_long", _as_float, required=True, where="verify")
            tail = _get(vsec, "tail_fraction", _as_float, default=0.5,
                        where="verify")
            rel_tol = _get(vsec, "rel_tol", _as_float, default=0.10, where="verify")
            dt = _dt(sim, overrides, default=adj.h)
            x0 = _get(sim, "x0", _as_vector, where="simulation")
            report = ball_experiment(problem, adj.h, batch.b, dt, t_long,
                                     n_paths, seed, mode, tail_fraction=tail,
                                     slack_se=slack,
                                     isotropic_rel_tol=rel_tol, x0=x0)
        else:  # pl-probe
            adj, batch, _ = build_schedules(cfg)
            if adj is None:
                raise ConfigError("the supermartingale probe needs 'h' in [schedule]")
            x0 = _get(sim, "x0", _as_vector, required=True, where="simulation")
            dt = _dt(sim, overrides, required=True)
            T = _get(sim, "t", _as_float, required=True, where="simulation")
            report = pl_supermartingale_probe(problem, adj, batch, x0, dt, T,
                                              n_paths, seed, slack_se=slack,
                                              n_checkpoints=n_cp)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    payload = report.to_json_dict()
    payload["seed"] = seed
    _write_json(out / f"{stem}.json", payload)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {experiment} (max violation {report.max_violation_se:.3g} SE, "
          f"{report.n_paths} paths, {report.runtime_seconds:.1f}s) -> "
          f"{out / (stem + '.json')}")
    return 0 if report.passed else 1


def cmd_suite(config_dir, overrides: argparse.Namespace) -> int:
    config_dir = Path(config_dir)
    if not config_dir.is_dir():
        raise ConfigError(f"not a directory: {config_dir}")
    files = sorted(p for p in config_dir.iterdir()
                   if p.suffix.lower() in (".ini", ".json") and p.is_file())
    if not files:
        raise ConfigError(f"no .ini or .json configs in {config_dir}")
    results = []
    worst = 0
    t0 = time.perf_counter()
    for path in files:
        # one bad config is recorded with its error and the suite goes on;
        # the exit code is the worst per-config code, as main() maps them
        experiment = error = None
        try:
            cfg = load_config(path)
            experiment = _get(cfg.get("verify", {}), "experiment", _as_str,
                              required=True, where="verify")
            if experiment not in _EXPERIMENTS:
                raise ConfigError(f"{path}: unknown experiment {experiment!r}; "
                                  f"valid: {list(_EXPERIMENTS)}")
            code = cmd_verify(cfg, experiment, overrides)
        except (ConfigError, AdmissibilityError) as e:
            code, error, label = 2, str(e), "config error"
        except EnsembleDivergenceError as e:
            code, error, label = 1, str(e), "run failed"
        worst = max(worst, code)
        result = {"config": path.name, "experiment": experiment,
                  "passed": code == 0}
        if error is not None:
            print(f"{label} in {path.name}: {error}", file=sys.stderr)
            result["error"] = error
        results.append(result)
    out, _, name = _output_params({}, overrides)
    all_passed = all(r["passed"] for r in results)
    _write_json(out / f"{name or 'suite_report'}.json", {
        "all_passed": all_passed,
        "runtime_seconds": time.perf_counter() - t0,
        "results": results,
    })
    for r in results:
        status = "PASS" if r["passed"] else "ERROR" if "error" in r else "FAIL"
        print(f"{status:<5} {r['experiment'] or '-':<12} {r['config']}")
    print(f"{'all experiments passed' if all_passed else 'FAILURES present'} "
          f"({len(results)} configs, {time.perf_counter() - t0:.1f}s)")
    return worst


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgflow",
        description="Simulate stochastic-gradient methods and their diffusion "
                    "limits, evaluate convergence-rate guarantees, and verify "
                    "them by Monte Carlo.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="INI or JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (overrides config; default {DEFAULT_SEED})")
        p.add_argument("--paths", type=int, default=None,
                       help="ensemble size (overrides config)")
        p.add_argument("--dt", type=float, default=None,
                       help="integrator step (overrides config)")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (overrides config)")

    p_sim = sub.add_parser("simulate", help="run one trajectory or an ensemble")
    common(p_sim)
    p_bound = sub.add_parser("bound", help="evaluate a rate guarantee as a curve")
    p_bound.add_argument("kind", help="guarantee kind, e.g. smooth_ct or pl_dt")
    common(p_bound)
    p_verify = sub.add_parser("verify", help="run one verification experiment")
    p_verify.add_argument("experiment", help=f"one of {', '.join(_EXPERIMENTS)}")
    common(p_verify)
    p_suite = sub.add_parser("suite", help="run every experiment config in a directory")
    p_suite.add_argument("config_dir", help="directory of verify configs")
    common(p_suite, config_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(load_config(args.config), args)
        if args.command == "bound":
            return cmd_bound(load_config(args.config), args.kind, args)
        if args.command == "verify":
            return cmd_verify(load_config(args.config), args.experiment, args)
        return cmd_suite(args.config_dir, args)
    except (ConfigError, AdmissibilityError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except EnsembleDivergenceError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
