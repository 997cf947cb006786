import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperharm
import oracles

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


# ball_dirichlet.py's output
BALL_DIRICHLET_OUTPUT = """\
boundary data: 1 - 2*x1*x2*x3 + 3*x1^2
expansion coefficients by degree:
  n=0: +7.089815
  n=1: +0.000000  +0.000000  +0.000000
  n=2: +1.585331  +0.000000  +0.000000  +2.745874  +0.000000
  n=3: +0.000000  +0.000000  +0.000000  +0.000000  -0.691895  +0.000000  +0.000000
  n=4: +0.000000  +0.000000  +0.000000  +0.000000  +0.000000  +0.000000  +0.000000  +0.000000  +0.000000
projection error report: 0.00e+00

interior values, series vs kernel integral
  |x|=0.160: +1.9744191771  +1.9744191771  diff 1.55e-15
  |x|=0.428: +2.0592523140  +2.0592523140  diff 1.78e-15
  |x|=0.401: +1.8417477309  +1.8417477309  diff 1.11e-15
  |x|=0.654: +2.3214976649  +2.3214976649  diff 1.33e-15
  |x|=0.492: +1.7659494074  +1.7659494074  diff 2.22e-16
  |x|=0.428: +1.9061733926  +1.9061733926  diff 1.11e-15
  |x|=0.418: +2.0697588320  +2.0697588320  diff 1.78e-15
  |x|=0.279: +1.9282647505  +1.9282647505  diff 4.44e-16

center value: +2.0000000000
mean of 1 + 3 x1^2 - 2 x1 x2 x3 over the sphere is 1 + 3/3 = 2

callable boundary data goes through the same pipeline
  series:  1.5298198910
  kernel:  1.5298198910
  reported projection error: 1.09e-14

green function boundary values (should be zero)
  G(x, x0) = -0.00e+00
  G(x, x0) = -0.00e+00
  G(x, x0) = -0.00e+00
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


def test_ball_dirichlet_output_is_pinned():
    # words and layout exactly; the floats, from BLAS sums, to 1e-9, under the last printed digit of every
    # value but the routes' gaps (`tests/output_digests.py` compares the bytes of two commits on one machine)
    (demo,) = (path for path in DEMOS if path.name == "ball_dirichlet.py")
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert oracles.same_up_to_rounding(proc.stdout, BALL_DIRICHLET_OUTPUT, 1e-9), proc.stdout
