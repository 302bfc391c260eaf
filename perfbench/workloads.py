"""The three benchmark workloads.

Each workload is built from the benchmark seed, constructs its inputs in
``setup`` (after sgflow has been imported) and runs one repetition per
``run`` call.  A repetition returns the verdicts it checked and the number
of state values its ensembles advanced (paths x steps x d).  sgflow sees
only the seeds derived here, passed as ``master_seed``/``seed``/``--seed``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import tempfile
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Patcher

CONFIGS = (
    "01_ou_ball_ct.ini",
    "02_ou_ball_dt.ini",
    "03_time_change.ini",
    "04_svrg_contraction.ini",
    "05_vr_sdde_contraction.ini",
    "06_pl_dt_constant.ini",
    "07_pl_dt_power.ini",
    "08_smooth_ct.ini",
    "09_pl_ct.ini",
    "10_landscape.ini",
    "11_weak_error.ini",
    "12_pl_probe.ini",
)


def ensemble_values(spec, n_paths: int) -> int:
    """State values an ensemble advances: paths x steps x d."""
    return n_paths * spec.total_steps * spec.problem.d


def derive_seed(seed: int, tag: str) -> int:
    """The seed sgflow receives for ``tag`` under benchmark seed ``seed``."""
    seq = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(seq.generate_state(1)[0])


@dataclass
class Verdict:
    """One checked output.  ``margin`` is informational, never gating."""

    label: str
    passed: bool
    margin: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass
class Repetition:
    verdicts: list
    values: int
    config_walls: dict = field(default_factory=dict)


def _finite_or_none(x) -> float | None:
    try:
        x = float(x)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def _failed(label: str) -> Verdict:
    traceback.print_exc(file=sys.stderr)
    return Verdict(label, False, detail={"error": traceback.format_exc(limit=3)})


class FloorWide:
    """Criterion-1 noise floor, d = 100, at a reduced path count."""

    name = "floor_wide"
    why = ("mb-pgf kernel on a wide (paths, 100) block: bound by normal draws, "
           "per-value step arithmetic and reduction of 5e6 recorded values")

    def __init__(self, seed: int, root: Path, n_paths: int = 100, d: int = 100,
                 t_long: float = 3.0, dt: float = 1e-4):
        self.n_paths, self.d, self.t_long, self.dt = n_paths, d, t_long, dt
        self.seeds = {self.name: derive_seed(seed, self.name)}

    def setup(self) -> None:
        self.harness = importlib.import_module("sgflow.harness")
        problems = importlib.import_module("sgflow.problems")
        self.problem = problems.make_isotropic_quadratic(2.0, self.d,
                                                         sigma_star_sq=0.1)

    def run(self) -> Repetition:
        n_steps = int(round(self.t_long / self.dt))
        try:
            report = self.harness.ball_experiment(
                self.problem, h=self.dt, b=1, dt=self.dt, T_long=self.t_long,
                n_paths=self.n_paths, seed=self.seeds[self.name],
                mode="continuous")
            rel = report.details["relative_error"]
            verdict = Verdict("ball", bool(report.passed) and rel <= 0.10,
                              _finite_or_none(report.max_violation_se),
                              {"relative_error": rel})
        except Exception:
            verdict = _failed("ball")
        return Repetition([verdict], self.n_paths * n_steps * self.d)


class AnnealLong:
    """Criterion-6 shape: pgd, d = 1, power schedule a = 0.5, 10^5 steps."""

    name = "anneal_long"
    why = ("pgd on tiny (400, 1) arrays for 1e5 steps: bound by per-step "
           "interpreter overhead and per-call schedule cost, not by draws")

    def __init__(self, seed: int, root: Path, n_paths: int = 400,
                 n_steps: int = 100_000, n_checkpoints: int = 240,
                 a: float = 0.5, h: float = 0.1):
        self.n_paths, self.n_steps, self.n_checkpoints = n_paths, n_steps, n_checkpoints
        self.a, self.h = a, h
        self.seeds = {self.name: derive_seed(seed, self.name)}

    def setup(self) -> None:
        self.harness = importlib.import_module("sgflow.harness")
        problems = importlib.import_module("sgflow.problems")
        schedules = importlib.import_module("sgflow.schedules")
        problem = problems.make_isotropic_quadratic(1.0, 1, sigma_star_sq=1.0)
        adj = schedules.AdjustmentSchedule(h=self.h, family="power", a=self.a)
        self.spec = self.harness.RunSpec(
            mode="pgd", problem=problem, x0=[1.0], adj=adj, n_steps=self.n_steps,
            record_ks=self.harness.geometric_checkpoints(self.n_steps,
                                                         self.n_checkpoints))

    def run(self) -> Repetition:
        try:
            stats = self.harness.ensemble_run(self.spec, self.n_paths,
                                              self.seeds[self.name])
            tail = stats.grid >= stats.grid[-1] / 10.0  # final decade
            slope = float(np.polyfit(np.log1p(stats.grid[tail]),
                                     np.log(stats.mean["f_gap"][tail]), 1)[0])
            error = abs(slope + self.a)
            verdict = Verdict("tail_slope", error <= 0.15, None,
                              {"slope": slope, "slope_error": error,
                               "paths_diverged": stats.divergence_count})
        except Exception:
            verdict = _failed("tail_slope")
        return Repetition([verdict], self.n_paths * self.n_steps)


class SuiteConfigs:
    """The configs in ``configs/``, each through ``sgflow verify`` in-process."""

    name = "suite_configs"
    why = ("the user-facing CLI path: index draws, record_every=1, per-path "
           "simulators, quadrature, config parsing and report writing")

    def __init__(self, seed: int, root: Path, configs=CONFIGS, extra_args=()):
        self.paths = [root / "configs" / c for c in configs]
        self.extra_args = list(extra_args)
        self.out_root = root / "perfbench" / "out"
        self.seeds = {p.name: derive_seed(seed, p.name) for p in self.paths}

    def setup(self) -> None:
        self.cli = importlib.import_module("sgflow.cli")
        self.harness = importlib.import_module("sgflow.harness")
        self.plan = []
        for path in self.paths:
            cfg = self.cli.load_config(path)
            self.cli.build_problem(cfg)
            self.cli.build_schedules(cfg)
            experiment = str(cfg.get("verify", {}).get("experiment", "")).strip().lower()
            self.plan.append((path, experiment))

    def run(self) -> Repetition:
        self.out_root.mkdir(parents=True, exist_ok=True)
        verdicts, walls = [], {}
        values = [0]
        with contextlib.ExitStack() as stack:
            tmp = Path(stack.enter_context(
                tempfile.TemporaryDirectory(dir=self.out_root)))
            stack.enter_context(_count_ensemble_values(
                [self.cli, self.harness], values))
            for i, (path, experiment) in enumerate(self.plan):
                out = tmp / f"{i:02d}"
                argv = ["verify", experiment, "--config", str(path),
                        "--out", str(out), "--seed", str(self.seeds[path.name]),
                        *self.extra_args]
                t0 = time.perf_counter()
                verdicts.append(self._verify(path.name, argv, out))
                walls[path.stem] = time.perf_counter() - t0
        return Repetition(verdicts, values[0], walls)

    def _verify(self, label: str, argv: list, out: Path) -> Verdict:
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
            reports = sorted(out.glob("*.json"))
            margin = (_finite_or_none(json.loads(reports[0].read_text())
                                      .get("max_violation_se"))
                      if reports else None)
        except Exception:
            return _failed(label)
        ok = code == 0 and len(reports) == 1
        if not ok:
            sys.stderr.write(f"{label}: exit {code}, {len(reports)} report(s)\n"
                             f"{captured.getvalue()}")
        return Verdict(label, ok, margin, {"exit_code": code})


@contextlib.contextmanager
def _count_ensemble_values(namespaces, total: list):
    """Add n_paths * steps * d of every ensemble_run call to total[0]."""
    def counting(run):
        def ensemble_run(spec, n_paths, *args, **kwargs):
            stats = run(spec, n_paths, *args, **kwargs)
            total[0] += ensemble_values(spec, n_paths)
            return stats
        return ensemble_run

    with Patcher() as patcher:
        for ns in namespaces:
            patcher.replace(ns, "ensemble_run", counting)
        yield


WORKLOADS = {w.name: w for w in (FloorWide, AnnealLong, SuiteConfigs)}
