"""End-to-end command-line checks: exit codes, file artifacts, reproducibility.

Everything runs through ``main(argv)`` with outputs under tmp_path.  Golden
values come from driving the library directly with the same seed derivation
the CLI documents (master seed -> spawned per-path generators), so the files
are pinned bitwise, not just approximately.
"""

import hashlib
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from sgflow.bounds import BoundInputs, RateBound
import sgflow.cli as cli
from sgflow.cli import DEFAULT_SEED, load_config, main
from sgflow.discrete import run_mb_sgd
from sgflow.harness import EnsembleDivergenceError, RunSpec, ensemble_run
from sgflow.problems import make_perturbed_quadratic, make_spread_quadratic
from sgflow.schedules import AdjustmentSchedule, BatchSchedule

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

PERTURBED_INI = """\
[problem]
family = perturbed
h_diag = 1.0, 2.0
x_star = 0.25, -1.0
noise = 0.5, 0.3; -0.5, -0.3

[schedule]
h = 0.25

[simulation]
mode = sgd
x0 = 1.25, 0.0
n_steps = 20

[ensemble]
n_paths = 1
seed = 4321
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {h: np.array([float(r[i]) for r in rows])
            for i, h in enumerate(header)}
    return header, cols


def perturbed_problem():
    return make_perturbed_quadratic(np.array([1.0, 2.0]),
                                    np.array([0.25, -1.0]),
                                    np.array([[0.5, 0.3], [-0.5, -0.3]]))


# -- config validation (exit code 2) ------------------------------------------


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_section_lists_valid_ones(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[problems]\nfamily = isotropic\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown section" in err and "problem" in err


def test_unknown_key_lists_valid_ones(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini",
                PERTURBED_INI.replace("h = 0.25", "stepsize = 0.25"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "stepsize" in err and "valid keys" in err


def test_unknown_problem_family(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini",
                "[problem]\nfamily = rosenbrock\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown problem family" in capsys.readouterr().err


def test_bad_scalar_value(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", PERTURBED_INI.replace("0.25", "abc", 1))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bad value" in capsys.readouterr().err


def test_bad_output_format(tmp_path, capsys):
    cfg = write(tmp_path, "sim.ini", PERTURBED_INI + "\n[output]\nformat = xml\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "unknown output format" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", "{not json")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("config,message", [
    (CONFIGS_DIR / "10_landscape.ini", "mode 'mb-pgf' needs key 'h' in [schedule]"),
    (PERTURBED_INI.replace("n_steps = 20\n", ""),
     "mode 'sgd' needs key 'n_steps' in [simulation]"),
    (PERTURBED_INI.replace("mode = sgd", "mode = time-changed")
     .replace("n_steps = 20", "dt = 0.1"),
     "mode 'time-changed' needs key 't' in [simulation]"),
    (PERTURBED_INI.replace("h = 0.25", "").replace("n_steps = 20", ""),
     "mode 'sgd' needs key 'h' in [schedule] and key 'n_steps' in [simulation]"),
], ids=["landscape-config", "sgd-n_steps", "time-changed-t", "sgd-two-keys"])
def test_missing_mode_key_names_the_config_key(tmp_path, capsys, config, message):
    path = config if isinstance(config, Path) else write(tmp_path, "c.ini", config)
    assert main(["simulate", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_shipped_configs_parse():
    files = sorted(p for p in CONFIGS_DIR.iterdir()
                   if p.suffix in (".ini", ".json"))
    assert files, "the packaged experiment configs are missing"
    for path in files:
        cfg = load_config(path)  # raises ConfigError on schema drift
        assert cfg.get("verify", {}).get("experiment"), path.name


# -- simulate ------------------------------------------------------------------


def test_single_trajectory_csv_matches_library(tmp_path, capsys):
    cfg = write(tmp_path, "sim.ini", PERTURBED_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out

    header, cols = read_csv(out / "trajectory.csv")
    assert header == ["t", "f_gap", "grad_norm_sq", "dist_sq", "flags"]
    assert len(cols["t"]) == 21
    assert cols["t"][0] == 0.0 and cols["t"][-1] == 5.0  # h * n_steps

    # the single path is path 0 of an ensemble at this master seed
    p = perturbed_problem()
    rng = np.random.default_rng(np.random.SeedSequence(4321).spawn(1)[0])
    tr = run_mb_sgd(p, AdjustmentSchedule(h=0.25), BatchSchedule(),
                    [1.25, 0.0], 20, rng)
    assert np.array_equal(cols["f_gap"], tr.f_gap)       # 17g round-trips
    assert np.array_equal(cols["dist_sq"], tr.dist_sq)
    assert cols["f_gap"][0] == 1.5


def test_ensemble_csv_matches_library(tmp_path, capsys):
    cfg = write(tmp_path, "sim.ini",
                PERTURBED_INI.replace("n_paths = 1", "n_paths = 8"))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert "8 paths, 0 diverged" in capsys.readouterr().out

    header, cols = read_csv(out / "ensemble.csv")
    assert header == ["t", "f_gap_mean", "f_gap_se", "grad_norm_sq_mean",
                      "grad_norm_sq_se", "dist_sq_mean", "dist_sq_se"]
    spec = RunSpec(mode="sgd", problem=perturbed_problem(), x0=[1.25, 0.0],
                   adj=AdjustmentSchedule(h=0.25), n_steps=20)
    stats = ensemble_run(spec, 8, 4321)
    assert np.array_equal(cols["f_gap_mean"], stats.mean["f_gap"])
    assert np.array_equal(cols["dist_sq_se"], stats.se("dist_sq"))


def test_reruns_are_byte_identical_and_seed_changes_bytes(tmp_path):
    cfg = write(tmp_path, "sim.ini",
                PERTURBED_INI.replace("n_paths = 1", "n_paths = 4"))
    outs = [tmp_path / f"out{i}" for i in range(4)]
    for i, extra in enumerate(([], [], ["--seed", "99"], ["--seed", "99"])):
        assert main(["simulate", "--config", str(cfg), "--out", str(outs[i])]
                    + extra) == 0
    same = (outs[0] / "ensemble.csv").read_bytes()
    assert same == (outs[1] / "ensemble.csv").read_bytes()
    reseeded = (outs[2] / "ensemble.csv").read_bytes()
    assert reseeded != same
    assert reseeded == (outs[3] / "ensemble.csv").read_bytes()


def test_json_config_gives_same_bytes_as_ini(tmp_path):
    ini = write(tmp_path, "sim.ini",
                PERTURBED_INI.replace("n_paths = 1", "n_paths = 4"))
    as_json = {
        "problem": {"family": "perturbed", "h_diag": [1.0, 2.0],
                    "x_star": [0.25, -1.0],
                    "noise": [[0.5, 0.3], [-0.5, -0.3]]},
        "schedule": {"h": 0.25},
        "simulation": {"mode": "sgd", "x0": [1.25, 0.0], "n_steps": 20},
        "ensemble": {"n_paths": 4, "seed": 4321},
    }
    jsn = write(tmp_path, "sim.json", json.dumps(as_json))
    assert main(["simulate", "--config", str(ini),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(jsn),
                 "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "ensemble.csv").read_bytes()
            == (tmp_path / "b" / "ensemble.csv").read_bytes())


def test_simulate_json_output_and_paths_override(tmp_path):
    cfg = write(tmp_path, "sim.ini", PERTURBED_INI)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads((out / "trajectory.json").read_text())
    assert payload["seed"] == 4321
    assert payload["diverged"] is False
    assert len(payload["t"]) == 21

    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--paths", "4"]) == 0
    assert (out / "ensemble.csv").is_file()


def test_single_path_writes_the_ensemble_record_grid(tmp_path):
    cfg = write(tmp_path, "sim.ini", PERTURBED_INI.replace(
        "n_steps = 20", "n_steps = 20\nrecord_every = 5"))
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--format", fmt]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--paths", "4"]) == 0

    _, single = read_csv(out / "trajectory.csv")
    _, ensemble = read_csv(out / "ensemble.csv")
    payload = json.loads((out / "trajectory.json").read_text())
    assert np.array_equal(single["t"], [0.0, 1.25, 2.5, 3.75, 5.0])
    assert np.array_equal(single["t"], ensemble["t"])
    assert payload["t"] == list(single["t"])

    # the rows are the full path's states at steps 0, 5, ..., 20
    rng = np.random.default_rng(np.random.SeedSequence(4321).spawn(1)[0])
    tr = run_mb_sgd(perturbed_problem(), AdjustmentSchedule(h=0.25),
                    BatchSchedule(), [1.25, 0.0], 20, rng)
    rows = np.arange(0, 21, 5)
    assert np.array_equal(single["f_gap"], tr.f_gap[rows])
    assert np.array_equal(single["dist_sq"], tr.dist_sq[rows])
    assert payload["grad_norm_sq"] == list(tr.grad_norm_sq[rows])
    assert payload["flags"] == [0] * 5


STRIDE_INI = PERTURBED_INI.replace("h = 0.25", "h = {h}").replace(
    "mode = sgd\nx0 = 1.25, 0.0\nn_steps = 20", "{sim}")

# single-path output of configs that record on a stride, frozen from the
# stride-1 path thinned to the record grid: recording on the stride itself
# must give the same bytes
STRIDE_CASES = {
    "plain": STRIDE_INI.format(
        h=0.25, sim="mode = sgd\nx0 = 1.25, 0.0\nn_steps = 20\nrecord_every = 5"),
    # h = 3 > 2/L: the path overflows at step 441, between grid rows
    "diverging": STRIDE_INI.format(
        h=3.0, sim="mode = pgd\nx0 = 1.25, 0.0\nn_steps = 600\nrecord_every = 7"),
    "vr-pgf-jumps": """\
[problem]
family = spread
lambda_mean = 3.0
spread = 1.0

[schedule]
h = 0.01
m = 2

[simulation]
mode = vr-pgf
x0 = 1.5
dt = 0.01
n_epochs = 10
record_every = 3
""",
    # 3000 steps and no record_every key: the default stride is 3
    "no-record-every": STRIDE_INI.format(
        h=0.25, sim="mode = mb-pgf\nx0 = 1.25, 0.0\ndt = 0.001\nt = 3.0"),
}
STRIDE_DIGESTS = {
    ("plain", "csv"): "26cf53e7a8db03b20f733994928a040818814f4a6ca0a5ac6b6e980b838056e1",
    ("plain", "json"): "58a909ec4184d55a896ce68f5790e8ce044b9f76a9208af0383dd05828beb719",
    ("diverging", "csv"): "2a0a89063c74630f6086d0e21ec5a0bcfe9a0801ab5b2c1fd09a77c28288e31b",
    ("diverging", "json"): "1c94186d4e2b0783153e2e337d5ed6c21a54e4082b9394304035c7676f0ce3a1",
    ("vr-pgf-jumps", "csv"): "7c9756b5254c862175303f7d7e4e1b191469961a37e94076bcca24cb539a4199",
    ("vr-pgf-jumps", "json"): "ac73db78db0625f399a659bf8e60f4afaa88fa5aae11ba65d862e8a0fe27e230",
    ("no-record-every", "csv"): "9d91730d9f1839ecd3c3f181c0c778d263b3499952d91d8eef7aeb51c02ca834",
    ("no-record-every", "json"): "1b83ec60ddebc4cffe5e166aefb8e8a871f31b32ab9174fdeb552edef4953e00",
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the diverging path
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(STRIDE_CASES))
def test_single_path_on_a_stride_keeps_its_bytes(tmp_path, case, fmt):
    cfg = write(tmp_path, "c.ini", STRIDE_CASES[case])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--format", fmt]) == 0
    data = (out / f"trajectory.{fmt}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == STRIDE_DIGESTS[case, fmt]


def test_single_path_runs_on_the_record_stride(tmp_path, monkeypatch):
    strides = []
    real = cli._run_one_path

    def spy(spec, rng, record_every=1):
        strides.append(record_every)
        return real(spec, rng, record_every)

    monkeypatch.setattr(cli, "_run_one_path", spy)
    cfg = write(tmp_path, "c.ini", STRIDE_CASES["plain"])
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 0
    assert strides == [5]


def test_vr_pgf_horizon_from_epochs_and_jump_flags(tmp_path):
    cfg = write(tmp_path, "vr.ini", """\
[problem]
family = spread
lambda_mean = 3.0
spread = 1.0

[schedule]
h = 0.01
m = 2

[simulation]
mode = vr-pgf
x0 = 1.5
dt = 0.01
n_epochs = 3
""")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out / "trajectory.csv")
    assert len(cols["t"]) == 7          # T = 3 epochs * 0.02 at dt = 0.01
    assert np.array_equal(cols["flags"], [0, 0, 1, 0, 1, 0, 1])


# -- bound curves --------------------------------------------------------------


BOUND_INI = """\
[problem]
family = perturbed
h_diag = 1.0, 2.0
x_star = 0.25, -1.0
noise = 0.5, 0.3; -0.5, -0.3

[schedule]
h = 0.25

[simulation]
x0 = 1.25, 0.0
dt = 1.0
t = 10.0
record_every = 1
"""

# oracle values for the gradient-domination curve at d=2, L=2, mu=1,
# sigma*^2=0.34, h=0.25, b=1, f0=1.5 (checked independently in test_bounds)
PL_CT_FROZEN = {0: 1.5, 1: 0.27649942577980696, 10: 0.08500000291653237}


def test_bound_pl_ct_curve_values(tmp_path):
    cfg = write(tmp_path, "b.ini", BOUND_INI)
    out = tmp_path / "out"
    assert main(["bound", "pl_ct", "--config", str(cfg), "--out", str(out)]) == 0
    header, cols = read_csv(out / "bound_pl_ct.csv")
    assert header == ["t", "bound"]
    assert np.array_equal(cols["t"], np.arange(11.0))
    for t, v in PL_CT_FROZEN.items():
        assert cols["bound"][t] == pytest.approx(v, rel=1e-12)


def test_bound_smooth_ct_is_infinite_at_zero(tmp_path):
    cfg = write(tmp_path, "b.ini", BOUND_INI)
    out = tmp_path / "out"
    assert main(["bound", "smooth_ct", "--config", str(cfg),
                 "--out", str(out)]) == 0
    text = (out / "bound_smooth_ct.csv").read_text().split("\n")
    assert text[1] == "0,inf"           # randomized-output bound diverges at 0
    _, cols = read_csv(out / "bound_smooth_ct.csv")
    assert np.all(np.isfinite(cols["bound"][1:]))


def test_bound_dt_override_coarsens_grid(tmp_path):
    cfg = write(tmp_path, "b.ini", BOUND_INI)
    out = tmp_path / "out"
    assert main(["bound", "pl_ct", "--config", str(cfg), "--out", str(out),
                 "--dt", "2.0"]) == 0
    _, cols = read_csv(out / "bound_pl_ct.csv")
    assert np.array_equal(cols["t"], [0.0, 2.0, 4.0, 6.0, 8.0, 10.0])


def test_bound_inadmissible_stepsize_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "b.ini", BOUND_INI.replace("h = 0.25", "h = 0.6"))
    cfg_txt = cfg.read_text().replace("dt = 1.0", "n_steps = 10")
    cfg.write_text(cfg_txt)
    assert main(["bound", "pl_dt", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bound_unknown_kind_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "b.ini", BOUND_INI)
    assert main(["bound", "superlinear", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bound_vr_epoch_grid(tmp_path):
    cfg = write(tmp_path, "vr.ini", """\
[problem]
family = spread
lambda_mean = 10.0
spread = 1.0

[schedule]
h = 0.01
m = 100

[simulation]
x0 = 3.0
n_epochs = 4
""")
    out = tmp_path / "out"
    assert main(["bound", "vr_dt", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out / "bound_vr_dt.csv")
    assert np.array_equal(cols["t"], np.arange(5.0))

    problem = make_spread_quadratic(10.0, 1.0)
    inputs = BoundInputs.from_problem(problem, np.array([3.0]),
                                      AdjustmentSchedule(h=0.01),
                                      BatchSchedule(), m=100)
    ref = RateBound("vr_dt", inputs)
    assert np.array_equal(cols["bound"], [ref.evaluate(j) for j in range(5)])
    assert cols["bound"][0] == 9.0
    assert np.all(np.diff(cols["bound"]) < 0)


@pytest.mark.parametrize("t, epochs", [(2.6, 3), (3.0, 4)])
def test_bound_vr_epochs_stop_at_the_horizon(tmp_path, t, epochs):
    # m h = 1: only the whole epochs within t are written
    cfg = write(tmp_path, "vr.ini", f"""\
[problem]
family = spread
lambda_mean = 10.0
spread = 1.0

[schedule]
h = 0.01
m = 100

[simulation]
x0 = 3.0
t = {t}
""")
    out = tmp_path / "out"
    assert main(["bound", "vr_ct", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out / "bound_vr_ct.csv")
    assert np.array_equal(cols["t"], np.arange(float(epochs)))


def test_bound_dt_starts_at_the_bound_on_x0(tmp_path):
    cfg = write(tmp_path, "b.ini", BOUND_INI.replace("dt = 1.0", "n_steps = 10"))
    out = tmp_path / "out"
    for kind in ("pl_dt", "wqc_last_dt"):
        assert main(["bound", kind, "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out / "bound_pl_dt.csv")
    assert cols["bound"][0] == perturbed_problem().gap(np.array([1.25, 0.0]))
    text = (out / "bound_wqc_last_dt.csv").read_text().split("\n")
    assert text[1] == "0,inf"           # Phi_0 = 0: no step has been taken


AGREE_INI = """\
[problem]
family = perturbed
h_diag = 1.0, 2.0
x_star = 0.25, -1.0
noise = 0.5, 0.3; -0.5, -0.3

[schedule]
h = 0.25

[simulation]
mode = {mode}
x0 = 1.25, 0.0
n_steps = 200
dt = 0.05
t = 5.0

[ensemble]
n_paths = 40
seed = 2718

[verify]
experiment = bound
kind = {kind}
"""


@pytest.mark.parametrize("kind, mode", [
    ("pl_dt", "sgd"), ("smooth_dt", "sgd"), ("pl_ct", "mb-pgf")])
def test_bound_curve_agrees_with_verify_bound(tmp_path, kind, mode):
    cfg = write(tmp_path, "a.ini", AGREE_INI.format(kind=kind, mode=mode))
    out = tmp_path / "out"
    assert main(["verify", "bound", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["bound", kind, "--config", str(cfg), "--out", str(out)]) == 0

    def rows(name):
        return [ln.split(",") for ln in (out / name).read_text().split("\n")[1:] if ln]

    written = dict(rows(f"bound_{kind}.csv"))
    checked = {row[0]: row[3] for row in rows(f"curve_{kind}.csv")}
    assert len(checked) >= 20
    assert {t: written[t] for t in checked} == checked


# -- verify and suite ----------------------------------------------------------


VERIFY_PL_INI = """\
[problem]
family = perturbed
h_diag = 1.0, 2.0
x_star = 0.25, -1.0
noise = 0.5, 0.3; -0.5, -0.3

[schedule]
h = 0.25

[simulation]
mode = sgd
x0 = 1.25, 0.0
n_steps = 400
record_every = 1

[ensemble]
n_paths = 80

[verify]
experiment = bound
kind = pl_dt
"""


def test_verify_bound_pass_artifacts_and_default_seed(tmp_path, capsys):
    cfg = write(tmp_path, "v.ini", VERIFY_PL_INI)
    out = tmp_path / "out"
    code = main(["verify", "bound", "--config", str(cfg), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("PASS bound")
    assert "80 paths" in stdout

    report = json.loads((out / "report_bound_pl_dt.json").read_text())
    assert report["passed"] is True
    assert report["experiment"] == "bound:pl_dt"
    assert report["seed"] == DEFAULT_SEED  # no seed anywhere -> fixed default
    assert all(cp["pass"] for cp in report["checkpoints"])

    header, cols = read_csv(out / "curve_pl_dt.csv")
    assert header == ["t", "empirical_mean", "se", "bound"]
    assert np.all(cols["empirical_mean"] <= cols["bound"] + 3.0 * cols["se"])


def test_verify_bound_runtime_covers_the_ensemble(tmp_path, monkeypatch):
    walls = []

    def timed_ensemble(*args, **kwargs):
        t0 = time.perf_counter()
        time.sleep(0.05)  # well above what the bound check alone takes
        stats = ensemble_run(*args, **kwargs)
        walls.append(time.perf_counter() - t0)
        return stats

    monkeypatch.setattr(cli, "ensemble_run", timed_ensemble)
    cfg = write(tmp_path, "v.ini", VERIFY_PL_INI)
    out = tmp_path / "out"
    assert main(["verify", "bound", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report_bound_pl_dt.json").read_text())
    assert len(walls) == 1
    assert report["runtime_seconds"] >= walls[0]


def test_verify_failure_exits_1(tmp_path, capsys):
    # zero statistical slack and a 100% pass requirement: the two ensembles
    # are equal in law but finite, so this must fail
    cfg = write(tmp_path, "tc.ini", """\
[problem]
family = isotropic
mu = 1.0
d = 1
sigma_star_sq = 0.25

[schedule]
h = 0.05

[simulation]
mode = mb-pgf
x0 = 1.0

[ensemble]
n_paths = 16
seed = 777

[verify]
experiment = time-change
t_w = 0.5
slack_se = 0.05
min_pass_fraction = 1.0
""")
    out = tmp_path / "out"
    code = main(["verify", "time-change", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL time-change")
    report = json.loads((out / "report_time-change.json").read_text())
    assert report["passed"] is False


def test_verify_needs_two_paths_except_landscape(tmp_path, capsys):
    cfg = write(tmp_path, "v.ini",
                VERIFY_PL_INI.replace("n_paths = 80", "n_paths = 1"))
    assert main(["verify", "bound", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "n_paths >= 2" in capsys.readouterr().err


def landscape_ini(out_dir):
    return f"""\
[problem]
family = isotropic
mu = 1.0
d = 2

[simulation]
mode = mb-pgf
x0 = 1.0, 1.0
dt = 0.001
t = 3.0

[ensemble]
n_paths = 1

[verify]
experiment = landscape
lambda = 1.0, -0.5

[output]
dir = {out_dir}
"""


def test_verify_landscape_single_deterministic_path(tmp_path, capsys):
    cfg = write(tmp_path, "l.ini", landscape_ini(tmp_path / "out"))
    assert main(["verify", "landscape", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("PASS landscape")
    report = json.loads((tmp_path / "out" / "report_landscape.json").read_text())
    assert report["passed"] is True
    assert report["details"]["slopes"]["coord_1"] == pytest.approx(0.5, abs=0.02)


def with_checkpoints(config, n):
    text = (CONFIGS_DIR / config).read_text()
    return text.replace("[verify]\n", f"[verify]\nn_checkpoints = {n}\n")


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("config, experiment", [
    ("09_pl_ct.ini", "bound"), ("12_pl_probe.ini", "pl-probe"),
    ("10_landscape.ini", "landscape")])
def test_verify_without_checkpoints_exits_2(tmp_path, capsys, config,
                                            experiment, n):
    cfg = write(tmp_path, config, with_checkpoints(config, n))
    out = tmp_path / "out"
    assert main(["verify", experiment, "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert (f"config error: n_checkpoints must be >= 1, got {n}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("config", ["04_svrg_contraction.ini",
                                    "05_vr_sdde_contraction.ini"])
def test_verify_vr_bound_with_n_checkpoints_exits_2(tmp_path, capsys,
                                                   monkeypatch, config):
    # the epoch kinds are checked at every epoch mark: a number of picks is
    # a config error, raised before the ensemble runs
    def no_run(*args, **kwargs):
        raise AssertionError("the ensemble ran")

    monkeypatch.setattr(cli, "ensemble_run", no_run)
    cfg = write(tmp_path, config, with_checkpoints(config, 30))
    out = tmp_path / "out"
    assert main(["verify", "bound", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "takes no n_checkpoints" in err
    assert not out.exists()


def test_verify_experiment_mismatch_and_unknown(tmp_path, capsys):
    cfg = write(tmp_path, "v.ini", VERIFY_PL_INI)
    assert main(["verify", "ball", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "declares experiment" in capsys.readouterr().err
    assert main(["verify", "entropy", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_verify_output_name_override(tmp_path):
    cfg = write(tmp_path, "v.ini", VERIFY_PL_INI + "\n[output]\nname = pinned\n")
    out = tmp_path / "out"
    assert main(["verify", "bound", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "pinned.json").is_file()
    assert (out / "pinned_curve.csv").is_file()


# -- config-boundary errors (exit code 2, no traceback) ------------------------


@pytest.mark.parametrize("stride", ["0", "-3"])
@pytest.mark.parametrize("command", ["simulate", "bound", "verify"])
def test_record_every_below_one_exits_2(tmp_path, capsys, command, stride):
    if command == "bound":
        text, argv = BOUND_INI, ["bound", "pl_ct"]
    else:
        text = VERIFY_PL_INI.replace("n_steps = 400", "n_steps = 20")
        argv = [command] + (["bound"] if command == "verify" else [])
    cfg = write(tmp_path, "c.ini", text.replace("record_every = 1",
                                                f"record_every = {stride}"))
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o"),
                        "--paths", "4"]) == 2
    assert "record_every must be >= 1" in capsys.readouterr().err


MB_PGF_INI = PERTURBED_INI.replace("mode = sgd", "mode = mb-pgf").replace(
    "n_steps = 20", "dt = 0.05\nt = 1.0")

# (config, argv, message) for each step or horizon the CLI must refuse
BAD_STEP_CASES = {
    "simulate-dt-0": (MB_PGF_INI, ["simulate", "--dt", "0"],
                      "bad value for --dt: must be positive, got 0.0"),
    "simulate-dt-negative": (MB_PGF_INI, ["simulate", "--dt", "-0.01"],
                             "bad value for --dt: must be positive, got -0.01"),
    "simulate-dt-inf": (MB_PGF_INI, ["simulate", "--dt", "inf"],
                        "bad value for --dt: must be finite, got inf"),
    "simulate-n_steps-negative": (
        PERTURBED_INI.replace("n_steps = 20", "n_steps = -5"), ["simulate"],
        "[simulation] n_steps must be >= 1"),
    "simulate-n_steps-0": (PERTURBED_INI.replace("n_steps = 20", "n_steps = 0"),
                           ["simulate"], "[simulation] n_steps must be >= 1"),
    "simulate-t-0": (MB_PGF_INI.replace("t = 1.0", "t = 0"), ["simulate"],
                     "[simulation] horizon T must be at least one step dt"),
    "simulate-svrg-n_epochs-0": (
        PERTURBED_INI.replace("mode = sgd", "mode = svrg")
        .replace("h = 0.25", "h = 0.25\nm = 3").replace("n_steps = 20", "n_epochs = 0"),
        ["simulate"], "[simulation] n_epochs must be >= 1"),
    "simulate-config-dt-0": (MB_PGF_INI.replace("dt = 0.05", "dt = 0"),
                             ["simulate"], "bad value for 'dt' in [simulation]: "
                             "must be positive, got 0.0"),
    "bound-dt-0": (BOUND_INI, ["bound", "smooth_ct", "--dt", "0"],
                   "bad value for --dt: must be positive, got 0.0"),
    "bound-t-below-dt": (BOUND_INI.replace("t = 10.0", "t = 0.5"),
                         ["bound", "smooth_ct"],
                         "horizon T must be at least one step dt"),
    "verify-bound-dt-0": (CONFIGS_DIR / "08_smooth_ct.ini",
                          ["verify", "bound", "--dt", "0"],
                          "bad value for --dt: must be positive, got 0.0"),
    "verify-ball-dt-negative": (CONFIGS_DIR / "01_ou_ball_ct.ini",
                                ["verify", "ball", "--dt=-1"],
                                "bad value for --dt: must be positive, got -1.0"),
    "verify-bound-bad-problem": ("[problem]\nfamily = isotropic\nmu = -1\nd = 1\n",
                                 ["verify", "bound"], "[problem] mu must be positive"),
}
for _name, _config in (("time-change", "03_time_change.ini"),
                       ("landscape", "10_landscape.ini"),
                       ("ball", "01_ou_ball_ct.ini"),
                       ("pl-probe", "12_pl_probe.ini")):
    BAD_STEP_CASES[f"verify-{_name}-dt-0"] = (
        CONFIGS_DIR / _config, ["verify", _name, "--dt", "0"],
        "bad value for --dt: must be positive, got 0.0")


@pytest.mark.parametrize("case", sorted(BAD_STEP_CASES))
def test_bad_step_or_horizon_exits_2(tmp_path, capsys, case):
    config, argv, message = BAD_STEP_CASES[case]
    path = config if isinstance(config, Path) else write(tmp_path, "c.ini", config)
    out = tmp_path / "o"
    assert main(argv + ["--config", str(path), "--out", str(out),
                        "--paths", "4"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


VR_OFF_GRID_INI = """[problem]
family = spread
lambda_mean = 10.0
spread = 1.0

[schedule]
h = 0.01
m = 2

[simulation]
mode = vr-pgf
x0 = 1.5
dt = 0.003
t = 0.06

[verify]
experiment = bound
kind = vr_ct
"""


@pytest.mark.parametrize("argv", [["simulate", "--paths", "4"],
                                  ["simulate", "--paths", "1"],
                                  ["verify", "bound", "--paths", "4"]],
                         ids=["ensemble", "single-path", "verify"])
def test_vr_pgf_epoch_off_the_dt_grid_exits_2(tmp_path, capsys, argv):
    # the epoch time 0.02 is not a multiple of dt = 0.003
    cfg = write(tmp_path, "vr.ini", VR_OFF_GRID_INI)
    assert main(argv + ["--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "must be a positive multiple of dt=0.003" in err


VR_HORIZON_INI = """\
[problem]
family = spread
lambda_mean = 10.0
spread = 1.0

[schedule]
h = 0.01
m = 100

[simulation]
mode = vr-pgf
x0 = 1.5
dt = 0.01
t = 2.0
n_epochs = 4
record_every = 100

[ensemble]
n_paths = 4

[verify]
experiment = bound
kind = vr_ct
"""


def test_vr_pgf_commands_share_the_n_epochs_horizon(tmp_path):
    # the epoch time m h is 1; n_epochs = 4 sets the horizon over t = 2.0 for
    # simulate and verify, as it does for the bound curve
    cfg = write(tmp_path, "vr.ini", VR_HORIZON_INI)
    out = tmp_path / "o"
    for argv in (["simulate"], ["bound", "vr_ct"], ["verify", "bound"]):
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert read_csv(out / "ensemble.csv")[1]["t"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert read_csv(out / "bound_vr_ct.csv")[1]["t"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert read_csv(out / "curve_vr_ct.csv")[1]["t"].tolist() == [1.0, 2.0, 3.0, 4.0]


def weak_error_ini(out_dir):
    return f"""\
[problem]
family = isotropic
mu = 1.0
d = 1

[simulation]
mode = sgd
x0 = 5.0
t = 1.0

[ensemble]
n_paths = 2

[verify]
experiment = weak-error
h_list = 0.1, 0.05

[output]
dir = {out_dir}
"""


def test_suite_all_pass(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write(suite_dir, "01_landscape.ini", landscape_ini(tmp_path / "art"))
    write(suite_dir, "02_weak_error.ini", weak_error_ini(tmp_path / "art"))
    out = tmp_path / "summary"
    assert main(["suite", str(suite_dir), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "all experiments passed" in stdout
    assert stdout.count("PASS") >= 2
    report = json.loads((out / "suite_report.json").read_text())
    assert report["all_passed"] is True
    assert [r["experiment"] for r in report["results"]] == ["landscape",
                                                            "weak-error"]


def test_suite_failure_and_guards(tmp_path, capsys):
    bad_dir = tmp_path / "suite"
    bad_dir.mkdir()
    write(bad_dir, "01_no_experiment.ini", PERTURBED_INI)
    assert main(["suite", str(bad_dir), "--out", str(tmp_path / "s")]) == 2
    assert "missing required key" in capsys.readouterr().err

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["suite", str(empty), "--out", str(tmp_path / "s")]) == 2
    assert main(["suite", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "s")]) == 2


def test_suite_carries_on_past_a_bad_config(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write(suite_dir, "01_bad.ini", weak_error_ini(tmp_path / "art").replace(
        "h_list = 0.1, 0.05\n", ""))
    write(suite_dir, "02_weak_error.ini", weak_error_ini(tmp_path / "art"))
    out = tmp_path / "summary"
    assert main(["suite", str(suite_dir), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert ("config error in 01_bad.ini: missing required key 'h_list'"
            in captured.err)
    assert "ERROR weak-error" in captured.out

    assert json.loads((out / "report_weak-error.json").read_text())["passed"]
    report = json.loads((out / "suite_report.json").read_text())
    assert report["all_passed"] is False
    bad, good = report["results"]
    assert bad["config"] == "01_bad.ini" and bad["passed"] is False
    assert bad["experiment"] == "weak-error"
    assert bad["error"] == "missing required key 'h_list' in [verify]"
    assert good == {"config": "02_weak_error.ini", "experiment": "weak-error",
                    "passed": True}


def test_suite_carries_on_past_a_bound_without_checkpoints(tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write(suite_dir, "01_bad_bound.ini", with_checkpoints("09_pl_ct.ini", -1))
    write(suite_dir, "02_ball.ini", (CONFIGS_DIR / "01_ou_ball_ct.ini").read_text())
    out = tmp_path / "summary"
    assert main(["suite", str(suite_dir), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config error in 01_bad_bound.ini: n_checkpoints" in captured.err
    assert "PASS  ball" in captured.out
    bad, good = json.loads((out / "suite_report.json").read_text())["results"]
    assert bad == {"config": "01_bad_bound.ini", "experiment": "bound",
                   "passed": False,
                   "error": "n_checkpoints must be >= 1, got -1"}
    assert good == {"config": "02_ball.ini", "experiment": "ball",
                    "passed": True}


def test_suite_divergence_is_recorded_and_exits_1(tmp_path, capsys,
                                                  monkeypatch):
    real_verify = cli.cmd_verify

    def diverging_first(cfg, experiment, overrides):
        if cfg["verify"].get("h_list") == "0.1, 0.05, 0.025":
            raise EnsembleDivergenceError("3/4 paths diverged")
        return real_verify(cfg, experiment, overrides)

    monkeypatch.setattr(cli, "cmd_verify", diverging_first)
    suite_dir = tmp_path / "suite"
    suite_dir.mkdir()
    write(suite_dir, "01_diverges.ini", weak_error_ini(tmp_path / "art").replace(
        "h_list = 0.1, 0.05", "h_list = 0.1, 0.05, 0.025"))
    write(suite_dir, "02_weak_error.ini", weak_error_ini(tmp_path / "art"))
    out = tmp_path / "summary"
    assert main(["suite", str(suite_dir), "--out", str(out)]) == 1
    assert "run failed in 01_diverges.ini: 3/4 paths diverged" in capsys.readouterr().err
    results = json.loads((out / "suite_report.json").read_text())["results"]
    assert results[0]["error"] == "3/4 paths diverged"
    assert [r["passed"] for r in results] == [False, True]


# sha256 of each file `sgflow suite configs --seed 4242` writes, with every
# "runtime_seconds" value replaced by a fixed token (wall time is the one
# value in these files that is not a function of (config, seed))
SUITE_4242_DIGESTS = {
    "curve_pl_ct.csv": "455e910c36ac637ac9f1534315b6a7a2de66ec5fa9ee751bc386b714d4b325b1",
    "curve_smooth_ct.csv": "9fce56daa7f793cee643c62091509d7c7a00966a4eb784868f86699b7cf92350",
    "report_ball_ct.json": "96aae8bf0c119bf6bc5b579f498a56eea276f2be9bc4f99226af3ec7e12fd28c",
    "report_ball_dt.json": "08cf95adffff2b55f52bb22c0a47e7123d325002c4fbb50bfd04e13c3828d7e7",
    "report_bound_pl_ct.json": "cd22bc580b246290afcf561f2ffa2b8f99c3accc763f07db069b5b83d92c292c",
    "report_bound_smooth_ct.json": "dae713df139c79457a2390a0002a0ff5257fed489715bde67754fb0279214139",
    "report_landscape.json": "b0debb570b5e7f9bf896798d89423266815790d2c8b2308e2142b8d8a2bae027",
    "report_pl-probe.json": "09bc72b05937da4eb977928ba87c0c43f91a53ae9ac7dac2d61e932c53e3aaa3",
    "report_pl_dt_constant.json": "cce70297c37f3eb9f8d29131137d76afa12ebe708c4298d646277e67150fd4bc",
    "report_pl_dt_constant_curve.csv": "c0fa2f4f8954166fe784bc6dd6a726e8f7c99dba269761b9b0c2d6693ffd4c8a",
    "report_pl_dt_power.json": "31605fc986cc1c4e20ae939baaf8194f6a3c7bc5170338ec5ec170b7aab7a2c9",
    "report_pl_dt_power_curve.csv": "6846795e2269edcf2eac70163ee78ef08b089931ce41a6297230284e0050ff76",
    "report_svrg_contraction.json": "4411854f37ee54ca0fa22a0eecd6a8da2d54cbb14d70a4c8b8b9e6cafe736c43",
    "report_svrg_contraction_curve.csv": "580ca7e1b6a713e53c66c33c8f96ceeb27fef0141bacb683d3d541e71c93271c",
    "report_time-change.json": "c7d5717706b128e57ec7fb43d5b026e85c2a56b3fdc80eb7711639e31e76d56d",
    "report_vr_sdde_contraction.json": "fa40b31374eab970d5ae935a40a7efe9f9b8d413d96b197dc8694638b63e83a5",
    "report_vr_sdde_contraction_curve.csv": "e66e1ad7fcb8f5d90cc1e04978294eee8bd97fb5fbbc0cebd57a682806b1498b",
    "report_weak-error.json": "f6875a73361beb208a89c7df5f4db479e491cfaf76bb8418e8b0b03d4e46651c",
    "suite_report.json": "63f539fb570da496c456e28699cac29fac8df74d2fbe8b8a9a0b7173ac6f0951",
}


def test_shipped_suite_outputs_keep_their_bytes(tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["suite", str(CONFIGS_DIR), "--seed", "4242",
                 "--out", str(out)]) == 0
    runtime = re.compile(rb'"runtime_seconds": [^,\n}]+')
    digests = {p.name: hashlib.sha256(runtime.sub(
        b'"runtime_seconds": "masked"', p.read_bytes())).hexdigest()
        for p in sorted(out.iterdir())}
    assert digests == SUITE_4242_DIGESTS
