"""The benchmark's own tests, run as part of this suite.

``perfbench`` traces sgflow by wrapping names at runtime: the kernels, the
draw generators, ``_BlockRecorder.record`` and its ``_cursor``, the harness
entry points and the schedules.  A renamed or removed name breaks the trace,
and the benchmark counts the resulting error as a failed verdict.  Running
``perfbench/tests`` here makes such a change fail this suite first.  They
run in a child process, from the root of the checkout, because they import
the benchmark's modules by their bare names.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tests_pass():
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/tests"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=600)
    assert child.returncode == 0, child.stdout[-3000:]
