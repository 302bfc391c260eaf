"""sgflow benchmark: three Monte-Carlo workloads, end to end or layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload floor_wide --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole repetitions with tracing off and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
repetition at the same seed and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (provenance,
per-repetition times, margins, exact counts) goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the schema and the reasons behind each
workload and metric.

The run is one Python process with BLAS pools pinned to one thread; it runs
one experiment at a time as a closed loop with a single caller, and imports
sgflow from ``src/`` of the checkout it sits in, never from elsewhere.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from hashlib import sha256  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import exact_counts, install, layer_metrics  # noqa: E402
from spans import Patcher, SpanLog, SpanSummary  # noqa: E402
from workloads import CONFIGS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 4  # before the first repetition (plus one cold round) and between repetitions
MIN_REPS = 2

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "values_per_s": "values/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _purge_sgflow() -> None:
    for name in [m for m in sys.modules if m == "sgflow" or m.startswith("sgflow.")]:
        del sys.modules[name]


def measure_setup(workload, rounds: int) -> list[float]:
    """Import sgflow afresh and build the workload's inputs, ``rounds`` times.

    Each round drops every sgflow module first, so the module code runs
    again.  numpy and scipy stay imported after the first round of the run,
    whose time (a cold import) is reported apart.  The workload then runs on
    the inputs of the last round.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        _purge_sgflow()
        importlib.import_module("sgflow")
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_reps(workload, seconds: float, setup_times: list) -> list:
    """Repetitions until the next one would end past ``seconds``.

    Set-up rounds are spread between the repetitions, so that their median,
    like the repetitions', samples the whole run.
    """
    reps = []
    start = time.perf_counter()
    while True:
        if reps:
            setup_times.extend(measure_setup(workload, SETUP_ROUNDS))
        t0 = time.perf_counter()
        rep = workload.run()
        wall = time.perf_counter() - t0
        reps.append((rep, wall))
        if len(reps) >= MIN_REPS and time.perf_counter() - start + wall > seconds:
            return reps


def traced_rep(workload, run_id: str):
    """One repetition under the layer trace; the wrappers are gone after it."""
    log = SpanLog(run_id)
    root = log.name_index("bench.rep", "bench")
    with Patcher() as patcher:
        install(log, patcher)
        t0 = time.perf_counter()
        i = log.open(root)
        try:
            rep = workload.run()
        finally:
            log.close(i)
        wall = time.perf_counter() - t0
    return rep, wall, log, patcher.missing


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    configs = {p.name: sha256(p.read_bytes()).hexdigest()
               for p in sorted((ROOT / "configs").iterdir())
               if p.suffix in (".ini", ".json")}
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "sgflow_seeds": workload.seeds,
        "config_sha256": configs,
    }


def _verdict_records(reps) -> list[dict]:
    return [{"rep": i, "label": v.label, "passed": v.passed,
             "max_violation_se": v.margin, **v.detail}
            for i, rep in enumerate(reps) for v in rep.verdicts]


def end_to_end(timed, setup_times) -> dict:
    walls = [w for _, w in timed]
    reps = [r for r, _ in timed]
    wall = statistics.median(walls)
    values = statistics.median(r.values for r in reps)
    verdicts = [v for r in reps for v in r.verdicts]
    passed = sum(v.passed for v in verdicts)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall,
        "values_per_s": values / wall,
        "setup_s": statistics.median(setup_times[1:] or setup_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_frac": passed / len(verdicts),
    }


def layer_report(untraced, untraced_wall: float, traced_wall: float, log):
    """Per-layer metrics, the span summary, and whether self times add up."""
    summary = SpanSummary(log)
    metrics = layer_metrics(log, summary)
    unattributed = summary.layer_self().get("bench", 0.0)
    attributed = sum(v for k, (v, _) in metrics.items() if k.startswith("layer.self_s."))
    metrics["trace.wall_s"] = (summary.root_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.spans"] = (float(summary.n_spans), "count")
    for config in CONFIGS:
        stem = config.rsplit(".", 1)[0]
        metrics[f"cli.config_wall_s.{stem}"] = (untraced.config_walls.get(stem, 0.0), "s")
    # self times partition the root span: layers plus the remainder = wall
    closes = abs(attributed + unattributed - summary.root_s) <= 1e-6 * summary.root_s
    return metrics, summary, closes


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "sgflow" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"no sgflow checkout at {ROOT} (need src/sgflow and configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload](args.seed, ROOT)
    setup_times = measure_setup(workload, SETUP_ROUNDS + 1)
    sgflow = sys.modules["sgflow"]
    if Path(sgflow.__file__).resolve().parent != src / "sgflow":
        print(f"sgflow imported from {sgflow.__file__}, not {src}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    record = {"run_id": run_id, "workload": args.workload, "why": workload.why,
              "trace": args.trace, "seconds": args.seconds,
              "setup_times_s": setup_times,
              "provenance": provenance(workload, args.seed)}
    if args.trace == 0:
        timed = run_reps(workload, args.seconds, setup_times)
        reps = [r for r, _ in timed]
        values = end_to_end(timed, setup_times)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        record["rep_walls_s"] = [w for _, w in timed]
        record["config_walls_s"] = [r.config_walls for r in reps]
        correct_extra = True
    else:
        t0 = time.perf_counter()
        untraced = workload.run()
        untraced_wall = time.perf_counter() - t0
        traced, traced_wall, log, missing = traced_rep(workload, run_id)
        reps = [untraced, traced]
        metrics, summary, closes = layer_report(untraced, untraced_wall,
                                                traced_wall, log)
        record["exact_counts"] = exact_counts(log, summary)
        record["unwrapped_names"] = missing
        record["spans_file"] = f"{run_id}.spans.npz"
        OUT.mkdir(parents=True, exist_ok=True)
        log.save(OUT / record["spans_file"])
        correct_extra = closes
        if missing:
            print(f"names not found to wrap: {missing}", file=sys.stderr)

    verdicts = [v for r in reps for v in r.verdicts]
    failed = sum(not v.passed for v in verdicts)
    record["verdicts"] = _verdict_records(reps)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and correct_extra,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
