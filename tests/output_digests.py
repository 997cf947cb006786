"""sha256 prefixes of the outputs on ROADMAP's byte-identity list, one line each.

The printed floats come from BLAS sums, whose last bits can depend on the
BLAS build and the CPU, so the digests compare two commits on one machine
and are pinned nowhere.  Run it against each checkout's `src` and diff:

    PYTHONPATH=src python tests/output_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python tests/output_digests.py > old.txt

The demos, the README examples and the benchmark's seeded `cli_session`
problems are taken from the checkout whose `src` is imported.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import hyperharm
from hyperharm import bvp, cli
from hyperharm.polyalg import FloatPolynomial

ROOT = Path(hyperharm.__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  the README examples and the seeded solve problems

COMMANDS = (
    *workloads.README_EXAMPLES,
    ("basis", "--p", "5", "--n", "4"),
    ("basis", "--p", "4", "--n", "3", "--format", "json"),
    ("basis", "--p", "3", "--n", "3", "--raw"),
    ("basis", "--p", "6", "--n", "8", "--format", "json"),
    ("funk-hecke", "--p", "5", "--n", "3", "--f", "exp", "--format", "json"),
    ("verify", *workloads.VERIFY_CHECKS),
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _command(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.run(list(argv))
    return f"{_digest(out.getvalue().encode())} exit {rc}: {' '.join(argv)}"


def _one_point_series() -> str:
    """One-point `series_eval` values at the inputs of `ci_probes.py`'s first warm op and of its ball probe."""
    rng = np.random.default_rng(5)
    u, v = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    x = rng.normal(size=(50, 4))
    warm = bvp.project_boundary(bvp.BoundaryData.from_callable(4, lambda y: np.exp(y @ u) * np.cos(y @ v)), 6)
    values = [bvp.series_eval(warm, x0) for x0 in 0.8 * x / np.linalg.norm(x, axis=1)[:, None]]
    terms = {(3, 0, 0, 0, 0): 0.75, (0, 1, 1, 0, 1): -0.625, (0, 0, 0, 2, 0): 0.5}
    ball = bvp.project_boundary(bvp.BoundaryData.from_polynomial(FloatPolynomial(5, terms)), 4)
    x = np.random.default_rng(3).normal(size=(50, 5))
    pts = np.linspace(0.016, 0.8, 50)[:, None] * x / np.linalg.norm(x, axis=1)[:, None]
    values += [bvp.series_eval(ball, x0) for x0 in pts]
    return f"{_digest(np.array(values).tobytes())} one-point series_eval, warm (4, 6) and ball (5, 4) probe inputs"


def main() -> None:
    session, home = workloads.WORKLOADS["cli_session"], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the README examples read problem.json and write rule.csv here
        try:
            for seed in range(3):
                session.prepare(session.sizes["full"], seed, Path(tmp))
                print(_command(("solve", "--problem", workloads.SEEDED_PROBLEM)), f"(cli_session seed {seed})")
            for argv in COMMANDS:
                print(_command(argv))
            print(_digest(Path("rule.csv").read_bytes()), "rule.csv")
        finally:
            os.chdir(home)
    print(_one_point_series())
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True, check=True, env=env)
        print(_digest(proc.stdout), demo.name)


if __name__ == "__main__":
    main()
