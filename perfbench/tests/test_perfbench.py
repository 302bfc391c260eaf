"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, drivers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
from spans import Patcher, SpanLog, SpanSummary, self_times, span_wrapper
from workloads import AnnealLong, FloorWide, SuiteConfigs

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# the fastest configs, at a reduced path count
SMALL_SUITE = dict(configs=("04_svrg_contraction.ini", "06_pl_dt_constant.ini",
                            "12_pl_probe.ini"),
                   extra_args=("--paths", "20"))


def tiny(name, seed=3):
    if name == "floor_wide":
        return FloorWide(seed, ROOT, n_paths=4, d=3, dt=1e-2)
    if name == "anneal_long":
        return AnnealLong(seed, ROOT, n_paths=8, n_steps=2_000, n_checkpoints=40)
    return SuiteConfigs(seed, ROOT, **SMALL_SUITE)


def test_self_times_on_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [7, 8.5]
    parent = np.array([-1, 0, 1, 0, 3, 3])
    start = np.array([0.0, 1.0, 2.0, 5.0, 5.0, 7.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 6.0, 8.5])
    got = self_times(parent, start, end)
    np.testing.assert_allclose(got, [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert got.sum() == pytest.approx(10.0)


def test_span_log_self_times_sum_to_root_and_fold():
    log = SpanLog("t")
    calls = []

    def inner(x):
        calls.append(x)
        return x

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x + 1)

    wrapped_inner = span_wrapper(log, inner, "lay.inner", "lay", fold=True)
    wrapped_outer = span_wrapper(log, outer, "lay.outer", "lay", fold=True)
    root = log.open(log.name_index("bench.rep", "bench"))
    wrapped_inner(0)             # entered from outside the layer: recorded
    wrapped_outer(1)             # its inner calls are folded into it
    log.close(root)
    summary = SpanSummary(log)
    assert summary.calls_of("lay.inner") == 1
    assert summary.calls_of("lay.outer") == 1
    assert calls == [0, 1, 2]
    assert sum(summary.layer_self().values()) == pytest.approx(summary.root_s)


def _attribute_snapshot():
    snap = {}
    for name in list(sys.modules):
        if name == "sgflow" or name.startswith("sgflow.") or name == "scipy.integrate":
            module = sys.modules[name]
            for attr, value in vars(module).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def test_wrappers_restore_the_originals():
    importlib.import_module("sgflow.cli")
    before = _attribute_snapshot()
    log = SpanLog("t")
    with Patcher() as patcher:
        layers.install(log, patcher)
        assert not patcher.missing
        cli = sys.modules["sgflow.cli"]
        assert cli.ensemble_run is not before[("sgflow.cli", "ensemble_run")]
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", ["floor_wide", "anneal_long", "suite_configs"])
def test_workload_driver_smoke(name):
    workload = tiny(name)
    workload.setup()
    rep = workload.run()
    assert rep.verdicts
    assert rep.values > 0
    if name == "suite_configs":
        assert set(rep.config_walls) == {c[:-4] for c in SMALL_SUITE["configs"]}
        assert all(v.detail["exit_code"] in (0, 1) for v in rep.verdicts)


def _traced_counts(name):
    workload = tiny(name)
    workload.setup()
    untraced = workload.run()
    traced, _, log, missing = run.traced_rep(workload, "t")
    metrics, summary, closes = run.layer_report(untraced, 1.0, 1.0, log)
    assert not missing
    assert closes
    return layers.exact_counts(log, summary), metrics


@pytest.mark.parametrize("name", ["floor_wide", "anneal_long", "suite_configs"])
def test_traced_counts_repeat_exactly(name):
    first, metrics = _traced_counts(name)
    second, _ = _traced_counts(name)
    assert first == second
    assert first["values_stepped"] > 0
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(metrics) == sorted(declared)


def test_declared_end_to_end_metrics_match():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "floor_wide", "anneal_long", "suite_configs"]


def test_refuses_a_directory_without_sgflow(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "floor_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
