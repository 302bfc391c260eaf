"""What importing and running sgflow loads: quadrature only where it integrates.

``scipy.integrate`` is most of ``import sgflow``'s time and resident memory,
and only a few bounds and the pl-probe integrate numerically, through
``sgflow.bounds.quad``, which imports it on its first call.  A fresh child
interpreter imports sgflow, runs what never integrates and checks that
``scipy.integrate`` is still not loaded, then runs what does and returns its
values, which must equal those of the same calls in the test process.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from sgflow import (
    AdjustmentSchedule,
    BatchSchedule,
    BoundInputs,
    RateBound,
    make_isotropic_quadratic,
    pl_supermartingale_probe,
)

ROOT = Path(__file__).resolve().parents[1]


def integrating():
    """A power-schedule pl_ct bound and the pl-probe's allowances, as hex."""
    problem = make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.5)
    power = AdjustmentSchedule(h=0.1, family="power", a=0.5)
    inputs = BoundInputs.from_problem(problem, [1.0, -1.0], power,
                                      BatchSchedule(b=2))
    bound = RateBound("pl_ct", inputs).evaluate(2.0)
    probe = pl_supermartingale_probe(problem, power, BatchSchedule(b=2),
                                     [1.0, -1.0], dt=0.01, T=1.0, n_paths=8,
                                     seed=5, n_checkpoints=4)
    return [bound.hex(), *(float(v).hex() for v in probe.reference)]


CHILD = """
import json
import sys

import numpy as np

from sgflow import (AdjustmentSchedule, BatchSchedule, BoundInputs, RateBound,
                    RunSpec, ball_experiment, ensemble_run,
                    make_isotropic_quadratic, pl_supermartingale_probe,
                    simulate_mb_pgf)


def loaded():
    return "scipy.integrate" in sys.modules


after_import = loaded()
problem = make_isotropic_quadratic(1.0, 2, sigma_star_sq=0.5)
adj = AdjustmentSchedule(h=0.1)
x0 = [1.0, -1.0]
ensemble_run(RunSpec(mode="pgd", problem=problem, x0=x0, adj=adj,
                     n_steps=50), 4, 1)
ensemble_run(RunSpec(mode="mb-pgf", problem=problem, x0=x0, adj=adj,
                     dt=0.01, T=0.5), 4, 2)
for mode in ("continuous", "discrete"):
    ball_experiment(problem, h=0.1, b=1, dt=0.05, T_long=5.0, n_paths=4,
                    seed=3, mode=mode)
simulate_mb_pgf(problem, adj, BatchSchedule(), x0, dt=0.01, T=0.5,
                rng=np.random.default_rng(4))
RateBound("pl_ct", BoundInputs.from_problem(problem, x0, adj,
                                            BatchSchedule(b=2))).evaluate(2.0)
before_quadrature = loaded()
""" + inspect.getsource(integrating) + """
values = integrating()
print(json.dumps({"after_import": after_import,
                  "before_quadrature": before_quadrature,
                  "after_quadrature": loaded(), "values": values}))
"""


def test_scipy_integrate_loads_only_on_first_quadrature():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr[-3000:]
    got = json.loads(child.stdout.splitlines()[-1])
    assert got["after_import"] is False
    assert got["before_quadrature"] is False
    assert got["after_quadrature"] is True
    assert got["values"] == integrating()
