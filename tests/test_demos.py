import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperharm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# every line of harmonic_census.py's output but its one float line
CENSUS_EXACT = """\
dimension table: K = homogeneous, N = harmonic
   n         p=2         p=3         p=4         p=5         p=6
   0         1/1         1/1         1/1         1/1         1/1
   1         2/2         3/3         4/4         5/5         6/6
   2         3/2         6/5        10/9       15/14       21/20
   3         4/2        10/7       20/16       35/30       56/50
   4         5/2        15/9       35/25       70/55     126/105
   5         6/2       21/11       56/36      126/91     252/196
   6         7/2       28/13       84/49     210/140     462/336

raw members for p=3, n=2 (each one has an exactly zero laplacian)
   -2*x3^2 + x2^2 + x1^2  laplacian zero: True
   x2*x3  laplacian zero: True
   x1*x3  laplacian zero: True
   -x2^2 + x1^2  laplacian zero: True
   x1*x2  laplacian zero: True

orthonormalization at p=4, n=3
  members: 16
  exact gram rank: 16
"""


def _run(demo):
    src = str(Path(hyperharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_census_exact_lines_are_pinned():
    (demo,) = (path for path in DEMOS if path.name == "harmonic_census.py")
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    *exact, deviation = proc.stdout.splitlines(keepends=True)
    assert "".join(exact) == CENSUS_EXACT
    assert re.fullmatch(r"  quadrature gram deviation from identity: \d\.\d\de[-+]\d\d\n", deviation)
