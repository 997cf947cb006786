"""The benchmark's workloads: seeded inputs, the timed operation, and its check.

Each workload is a closed loop with one client.  The benchmark process
(``run.py``) builds every operation's input from the run seed and checks every
output; a worker process (``worker.py``) imports hyperharm and runs the
operation.  The library only ever sees the generated inputs.

Functions of a workload, and the process that calls them:

- ``make_input(params, seed, index)``, run.py: the JSON input of operation
  ``index``.  Index -1 is the untimed warm-up of a session workload.
- ``prepare(params, seed, workdir)``, run.py: files the operations read.
- ``setup(params, seed)``, worker: work done once per worker process after
  ``import hyperharm`` and before the worker reports ready.
- ``operation(params, inp)``, worker: the timed work.
- ``collect(params, inp, result)``, worker: untimed conversion of the
  operation's result to JSON outputs.
- ``check(params, inp, out, state)``, run.py: ``(ok, err)``, where ``err`` is
  the largest error against the workload's reference (None if the operation
  has no error figure) and ``state`` is a dict that lives for one run.

hyperharm is imported inside the worker-side functions only, so run.py
never imports the library it measures.  The operations look library functions
up as module attributes at call time, so the tracing wrappers in ``spans.py``
see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

COEFF_DENOMINATOR = 16


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index + 1])


def _exponents(p: int, degree: int):
    """Exponent tuples of total degree ``degree`` in ``p`` variables."""
    for combo in itertools.combinations_with_replacement(range(p), degree):
        yield tuple(combo.count(i) for i in range(p))


def _sphere_points(rng, p: int, count: int) -> np.ndarray:
    x = rng.standard_normal((count, p))
    return x / np.linalg.norm(x, axis=1)[:, None]


def _interior_points(rng, p: int, count: int, radius: float) -> np.ndarray:
    """Seeded directions at radii spaced evenly up to ``radius``.

    The errors of both ball solvers grow with |x|; fixed radii put the
    outermost point at the same |x| for every seed.
    """
    radii = np.linspace(radius / count, radius, count)
    return radii[:, None] * _sphere_points(rng, p, count)


def _polynomial_terms(rng, p: int, degree: int, count: int) -> list:
    """``count`` distinct seeded monomials of degree <= ``degree``, one of them
    of degree exactly ``degree``, with coefficients k/16, 8 <= |k| <= 16.

    The term count and top degree are fixed so that every seed costs the same
    work, and the coefficient range is narrow so that the error scale is
    similar; only the monomials, signs and coefficients vary.
    """
    monos = [a for d in range(degree + 1) for a in _exponents(p, d)]
    top = [i for i, a in enumerate(monos) if sum(a) == degree]
    first = int(rng.choice(top))
    others = [i for i in range(len(monos)) if i != first]
    chosen = [first] + [int(i) for i in rng.choice(others, count - 1, replace=False)]
    nums = rng.integers(COEFF_DENOMINATOR // 2, COEFF_DENOMINATOR + 1, size=count) * rng.choice([-1, 1], size=count)
    return [[list(monos[i]), int(k), COEFF_DENOMINATOR] for i, k in zip(chosen, nums)]


def _max_abs_diff(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0 or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        return math.inf
    return float(np.max(np.abs(a - b)))


def _identity(params, inp, result):
    return result


# -- ball_solve ------------------------------------------------------------


def _ball_input(params, seed, index):
    rng = _rng(seed, index)
    p = params["p"]
    return {
        "terms": _polynomial_terms(rng, p, params["poly_degree"], params["poly_terms"]),
        "points": _interior_points(rng, p, params["points"], params["radius"]).tolist(),
    }


def _ball_operation(params, inp):
    from hyperharm import bvp, polyalg

    poly = polyalg.ExactPolynomial(
        params["p"], {tuple(a): Fraction(num, den) for a, num, den in inp["terms"]}
    )
    f = bvp.BoundaryData.from_polynomial(poly)
    pts = np.array(inp["points"])
    sol = bvp.project_boundary(f, params["n_max"])
    series = [bvp.series_eval(sol, x) for x in pts]
    kernel = bvp.poisson_eval(f, pts, quad_degree=params["quad_degree"])
    return {"series": series, "kernel": np.asarray(kernel).tolist()}


def _ball_check(params, inp, out, state):
    err = _max_abs_diff(out["series"], out["kernel"])
    ok = len(out["series"]) == len(inp["points"]) and err <= params["tol"]
    return ok, err


# -- project_warm ----------------------------------------------------------


def _warm_input(params, seed, index):
    rng = _rng(seed, index)
    p = params["p"]
    q, _ = np.linalg.qr(rng.standard_normal((p, 2)))
    # All points on the shell |x| = radius, where the truncation error is
    # largest (at most about 4.6e-5 at 0.8 for n_max = 6), so the largest error
    # is a maximum over many directions and varies little between seeds.
    points = params["radius"] * _sphere_points(rng, p, params["points"])
    return {"u": q[:, 0].tolist(), "v": q[:, 1].tolist(), "points": points.tolist()}


def _harmonic_exp_cos(u, v):
    """f(x) = exp(u.x) cos(v.x); harmonic because |u| = |v| and u is orthogonal to v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return lambda x: np.exp(x @ u) * np.cos(x @ v)


def _warm_operation(params, inp):
    from hyperharm import bvp

    f = bvp.BoundaryData.from_callable(params["p"], _harmonic_exp_cos(inp["u"], inp["v"]))
    sol = bvp.project_boundary(f, params["n_max"])
    series = [bvp.series_eval(sol, x) for x in np.array(inp["points"])]
    return {
        "series": series,
        "projection_error": sol.projection_error,
        "coeff_sq_sum": sol.coeff_sq_sum,
        "f_norm_sq": sol.f_norm_sq,
    }


def _warm_setup(params, seed):
    _warm_operation(params, _warm_input(params, seed, -1))


def _warm_check(params, inp, out, state):
    # f is harmonic, so f itself is the exact solution inside the ball
    exact = _harmonic_exp_cos(inp["u"], inp["v"])(np.array(inp["points"]))
    err = _max_abs_diff(out["series"], exact)
    ok = (
        err <= params["tol"]
        and out["projection_error"] <= params["projection_tol"]
        and out["coeff_sq_sum"] <= out["f_norm_sq"]
    )
    return ok, err


# -- basis_build -----------------------------------------------------------


def harmonic_count(p: int, n: int) -> int:
    """dim of degree-n harmonics in p variables, from the closed form
    C(n+p-1, p-1) - C(n+p-3, p-1); independent of hyperharm."""
    return math.comb(n + p - 1, p - 1) - (math.comb(n + p - 3, p - 1) if n >= 2 else 0)


def _solid_angle(p: int) -> float:
    return 2.0 * math.pi ** (p / 2) / math.gamma(p / 2)


def _basis_input(params, seed, index):
    return {"points": _sphere_points(_rng(seed, index), params["p"], params["points"]).tolist()}


def _basis_operation(params, inp):
    from hyperharm import harmonic

    return harmonic.orthonormalize(params["p"], params["n"])


def _basis_collect(params, inp, basis):
    vals = basis.evaluate_members(np.array(inp["points"]))
    return {"members": len(basis.members), "sum_sq": (vals * vals).sum(axis=1).tolist()}


def _basis_check(params, inp, out, state):
    # addition theorem at xi = eta: sum_i Y_i(x)^2 = N / Omega on the sphere
    expected = harmonic_count(params["p"], params["n"])
    if out["members"] != expected or len(out["sum_sq"]) != len(inp["points"]):
        return False, None
    residual = np.asarray(out["sum_sq"]) * _solid_angle(params["p"]) / expected - 1.0
    err = _max_abs_diff(residual, np.zeros_like(residual))
    return err <= params["tol"], err


# -- cli_session -----------------------------------------------------------

README_PROBLEM = {
    "p": 3,
    "n_max": 4,
    "boundary": {"type": "builtin", "name": "coordinate"},
    "eval_points": [[0.2, 0.1, 0.0], [0.0, 0.0, 0.5]],
}
SEEDED_PROBLEM = "seeded_problem.json"

# the README's command-line examples, in order
README_EXAMPLES = (
    ("count", "--p", "3", "--n", "2"),
    ("legendre", "--p", "2", "--n", "3", "--eval", "0.5"),
    ("legendre", "--p", "4", "--n", "6", "--table", "--format", "json"),
    ("basis", "--p", "3", "--n", "2"),
    ("quadrature", "--p", "3", "--degree", "9", "--out", "rule.csv"),
    ("funk-hecke", "--p", "3", "--n", "2", "--f", "t2"),
    ("solve", "--problem", "problem.json", "--degree", "64"),
    ("verify", "addition", "--p", "3", "--n", "4", "--samples", "100"),
)

VERIFY_CHECKS = (
    "orthogonality",
    "addition",
    "generating-function",
    "funk-hecke",
    "quadrature",
    "recurrence",
    "harmonicity",
    "bvp",
)


def _cli_invocations(params):
    return (
        *README_EXAMPLES,
        ("verify", *params["verify_checks"]),
        ("solve", "--problem", SEEDED_PROBLEM),
    )


def _cli_prepare(params, seed, workdir: Path):
    (workdir / "problem.json").write_text(json.dumps(README_PROBLEM))
    rng = _rng(seed, 0)
    p = params["p"]
    terms = _polynomial_terms(rng, p, params["poly_degree"], params["poly_terms"])
    problem = {
        "p": p,
        "n_max": params["n_max"],
        "boundary": {
            "type": "polynomial",
            "terms": [{"alpha": a, "num": num, "den": den} for a, num, den in terms],
        },
        "eval_points": _interior_points(rng, p, params["points"], params["radius"]).tolist(),
    }
    (workdir / SEEDED_PROBLEM).write_text(json.dumps(problem))


def _cli_input(params, seed, index):
    invocations = _cli_invocations(params)
    argv = list(invocations[index % len(invocations)])
    rows = None
    if argv[0] == "solve":
        rows = params["points"] if argv[2] == SEEDED_PROBLEM else len(README_PROBLEM["eval_points"])
    return {"argv": argv, "rows": rows}


def _cli_operation(params, inp):
    from hyperharm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(inp["argv"])
    return {"rc": rc, "stdout": buf.getvalue()}


def _solve_abs_diff(stdout: str) -> list:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    col = lines[0].split(",").index("abs_diff")
    return [float(ln.split(",")[col]) for ln in lines[1:]]


def _cli_check(params, inp, out, state):
    digest = hashlib.sha256(out["stdout"].encode()).hexdigest()
    first = state.setdefault("first_stdout", {}).setdefault(tuple(inp["argv"]), digest)
    ok = out["rc"] == 0 and digest == first
    err = None
    if inp["rows"] is not None and out["rc"] == 0:
        diffs = _solve_abs_diff(out["stdout"])
        err = _max_abs_diff(diffs, np.zeros(len(diffs))) if len(diffs) == inp["rows"] else math.inf
        ok = ok and err <= params["tol"]
    return ok, err


# -- registry --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    fresh_process: bool  # one fresh interpreter per operation, else one session
    cycle: int  # operations per cycle; runs are whole cycles, so counts repeat
    sizes: dict  # "full" and "tiny" -> params
    make_input: Callable
    operation: Callable
    check: Callable
    collect: Callable = _identity
    setup: Callable | None = None
    prepare: Callable | None = None


# At the CLI's default kernel degree 64 in p = 4 the kernel integral misses
# 1e-6 in some directions at |x| = 0.8 (1.9e-6 seen), so this solve stays
# within |x| <= 0.7.
_SOLVE_FULL = dict(p=4, n_max=4, poly_degree=3, poly_terms=3, points=50, radius=0.7, tol=1e-6)
_SOLVE_TINY = dict(_SOLVE_FULL, p=3, points=5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ball_solve",
            fresh_process=True,
            cycle=1,
            sizes={
                "full": dict(p=5, n_max=4, poly_degree=3, poly_terms=3, points=50,
                             radius=0.8, quad_degree=68, tol=1e-6),
                "tiny": dict(p=3, n_max=3, poly_degree=3, poly_terms=3, points=5,
                             radius=0.5, quad_degree=40, tol=1e-6),
            },
            make_input=_ball_input,
            operation=_ball_operation,
            check=_ball_check,
        ),
        Workload(
            name="project_warm",
            fresh_process=False,
            cycle=1,
            sizes={
                "full": dict(p=4, n_max=6, points=50, radius=0.8, tol=1e-4, projection_tol=1e-10),
                "tiny": dict(p=3, n_max=6, points=5, radius=0.8, tol=1e-4, projection_tol=1e-10),
            },
            make_input=_warm_input,
            operation=_warm_operation,
            check=_warm_check,
            setup=_warm_setup,
        ),
        Workload(
            name="basis_build",
            fresh_process=True,
            cycle=1,
            sizes={
                "full": dict(p=6, n=8, points=64, tol=1e-10),
                "tiny": dict(p=3, n=4, points=8, tol=1e-10),
            },
            make_input=_basis_input,
            operation=_basis_operation,
            collect=_basis_collect,
            check=_basis_check,
        ),
        Workload(
            name="cli_session",
            fresh_process=True,
            cycle=len(README_EXAMPLES) + 2,
            sizes={
                "full": dict(_SOLVE_FULL, verify_checks=VERIFY_CHECKS),
                "tiny": dict(_SOLVE_TINY, verify_checks=("quadrature", "recurrence")),
            },
            make_input=_cli_input,
            operation=_cli_operation,
            check=_cli_check,
            prepare=_cli_prepare,
        ),
    )
}
