"""Command-line front end.

Every subcommand renders one table (CSV) or one document (JSON) to stdout,
and to ``--out`` when given.  Identical argv and seed produce identical
bytes.  Exit codes: 0 success, 1 a verification check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's gettext imports it at the first parser build; load it with the CLI
import sys
from fractions import Fraction

import numpy as np
from numpy.random import default_rng

from . import bvp as bvp_mod
from .geometry import monomial_sphere_integral, solid_angle, sphere_quadrature
from .harmonic import (
    addition_theorem_eval,
    count_harmonic,
    count_homogeneous,
    harmonic_basis_raw,
    legendre_harmonic,
    orthonormalize,
)
from .legendre import (
    LegendreTable,
    funk_hecke_coeff,
    legendre_coeffs,
    legendre_eval,
)
from .orthopoly import Weight, gram_schmidt, inner_product, recurrence_coeffs, recurrence_residual
from .polyalg import ExactPolynomial

__all__ = ["run", "main"]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv(header, rows, meta=None) -> str:
    lines = []
    if meta:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _fraction_str(value) -> str:
    """`json.dumps`' hook: a Fraction is written as its str, and anything else it cannot write raises."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, text: str) -> None:
    # the file first, so an unwritable --out prints nothing
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _render(args, doc, header, rows, meta=None) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2, default=_fraction_str) + "\n"
    else:
        text = _csv(header, rows, meta)
    _emit(args, text)


def _cmd_count(args) -> int:
    K = count_homogeneous(args.p, args.n)
    N = count_harmonic(args.p, args.n)
    doc = {"p": args.p, "n": args.n, "K": K, "N": N}
    _render(args, doc, ["p", "n", "K", "N"], [[args.p, args.n, K, N]])
    return 0


def _cmd_legendre(args) -> int:
    p, n = args.p, args.n
    if args.eval is not None:
        if not np.isfinite(args.eval):
            raise ValueError("--eval must be a finite number")
        value = legendre_eval(p, n, args.eval)  # refuses a value past a double
        doc = {"p": p, "n": n, "t": args.eval, "value": value}
        _render(args, doc, ["p", "n", "t", "value"], [[p, n, args.eval, value]])
        return 0
    if args.table:
        table = LegendreTable(p, n)
        rows = [
            [k, k_deg, c]
            for k in range(n + 1)
            for k_deg, c in enumerate(table[k].coeffs)
        ]
        doc = {
            "p": p,
            "n_max": n,
            "coefficients": [list(table[k].coeffs) for k in range(n + 1)],
        }
        _render(args, doc, ["n", "k", "coefficient"], rows, {"p": p})
        return 0
    poly = legendre_coeffs(p, n)
    rows = [[k, c] for k, c in enumerate(poly.coeffs)]
    doc = {"p": p, "n": n, "coefficients": list(poly.coeffs)}
    _render(args, doc, ["k", "coefficient"], rows, {"p": p, "n": n})
    return 0


def _cmd_basis(args) -> int:
    if args.raw:
        members = harmonic_basis_raw(args.p, args.n)
    else:
        members = orthonormalize(args.p, args.n).members
    rows = [
        [i, " ".join(str(e) for e in alpha), c]
        for i, m in enumerate(members)
        for alpha, c in m.terms.items()
    ]
    doc = {
        "p": args.p,
        "n": args.n,
        "kind": "raw" if args.raw else "orthonormal",
        "members": [
            {"terms": [{"alpha": list(a), "coeff": c} for a, c in m.terms.items()]}
            for m in members
        ],
    }
    _render(
        args,
        doc,
        ["member", "exponents", "coefficient"],
        rows,
        {"p": args.p, "n": args.n, "count": len(members)},
    )
    return 0


def _cmd_quadrature(args) -> int:
    rule = sphere_quadrature(args.p, args.degree)
    if args.format == "json":
        _emit(args, rule.to_json() + "\n")
    else:
        _emit(args, rule.to_csv())
    return 0


ZONAL_FUNCTIONS = {
    "one": lambda t: np.ones_like(t),
    "t": lambda t: t,
    "t2": lambda t: t**2,
    "t3": lambda t: t**3,
    "abs": np.abs,
    "exp": np.exp,
}


def _cmd_funk_hecke(args) -> int:
    nodes = {} if args.degree is None else {"m": args.degree}
    lam = funk_hecke_coeff(args.p, args.n, ZONAL_FUNCTIONS[args.f], **nodes)
    doc = {"p": args.p, "n": args.n, "f": args.f, "lambda": lam}
    _render(
        args, doc, ["p", "n", "f", "lambda"], [[args.p, args.n, args.f, lam]]
    )
    return 0


def _parse_problem(doc, degree_override):
    """Check a solve problem; return p, n_max, boundary data, (m, p) points and kernel degree."""
    if not isinstance(doc, dict):
        raise ValueError("the problem must be a JSON object")
    quad_degree = doc.get("quad_degree") if degree_override is None else degree_override
    quad_degree = 64 if quad_degree is None else quad_degree
    fields = (("p", 2, doc.get("p")), ("n_max", 0, doc.get("n_max")), ("quad_degree", 0, quad_degree))
    for key, least, value in fields:
        if type(value) is not int or value < least:
            raise ValueError(f"{key} must be an integer of at least {least}")
    p, points = doc["p"], doc.get("eval_points")
    if not isinstance(points, list) or not all(isinstance(x, list) and len(x) == p for x in points):
        raise ValueError(f"eval_points must be a list of points of p = {p} coordinates")
    for i, x in enumerate(points):
        for j, c in enumerate(x):
            # rejects bools, huge ints, NaN and infinities too
            if type(c) not in (int, float) or not -1 <= c <= 1:
                raise ValueError(f"eval_points[{i}][{j}] must be a number in [-1, 1]")
    desc = doc.get("boundary")
    if not isinstance(desc, dict):
        raise ValueError("boundary must be a JSON object")
    if desc.get("type") == "polynomial":
        poly = ExactPolynomial.from_json_dict({"nvars": p, "terms": desc.get("terms")})
        f = bvp_mod.BoundaryData.from_polynomial(poly)
    elif desc.get("type") == "builtin":
        f = bvp_mod.builtin_boundary(p, desc.get("name"))
    else:
        raise ValueError("boundary type must be 'polynomial' or 'builtin'")
    return p, doc["n_max"], f, np.array(points, dtype=float).reshape(-1, p), quad_degree


def _cmd_solve(args) -> int:
    with open(args.problem) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("the problem file nests too deeply") from None
    p, n_max, f, pts, quad_degree = _parse_problem(doc, args.degree)
    sol = bvp_mod.project_boundary(f, n_max)
    series = bvp_mod.series_eval(sol, pts).tolist()
    kernel = bvp_mod.poisson_eval(f, pts, quad_degree=quad_degree).tolist()
    rows = [[*x, a, b, abs(a - b)] for x, a, b in zip(pts.tolist(), series, kernel)]
    header = [f"x{i + 1}" for i in range(p)] + ["series_value", "poisson_value", "abs_diff"]
    doc = {"p": p, "n_max": n_max, "quad_degree": quad_degree, "header": header, "rows": rows}
    _render(args, doc, header, rows, {"p": p, "n_max": n_max, "quad_degree": quad_degree})
    return 0


def _range_str(values) -> str:
    values = sorted(set(values))
    if not values:
        return "-"
    if len(values) == 1:
        return str(values[0])
    return f"{values[0]}..{values[-1]}"


def _unit(rng, p):
    v = rng.normal(size=p)
    return v / np.linalg.norm(v)


# Each check returns its worst residual at one dimension p, given the top
# degree, the sample count and the check's own generator, drawn in order.


def _check_orthogonality(p, n_top, samples, rng):
    w = Weight(Fraction(p - 3, 2), Fraction(p - 3, 2))
    polys = [legendre_coeffs(p, n) for n in range(n_top + 1)]
    worst = 0.0
    for i in range(n_top + 1):
        for j in range(i):
            worst = max(worst, abs(inner_product(polys[i], polys[j], w)))
    return worst


def _check_addition(p, n_top, samples, rng):
    worst = 0.0
    for n in range(n_top + 1):
        basis = orthonormalize(p, n)
        for _ in range(samples):
            xi = _unit(rng, p)
            eta = _unit(rng, p)
            lhs = addition_theorem_eval(basis, xi, eta)
            rhs = legendre_eval(p, n, float(xi @ eta))
            worst = max(worst, abs(lhs - rhs))
    return worst


def _check_generating_function(p, n_top, samples, rng):
    t_grid = np.linspace(-1.0, 1.0, 11)
    return bvp_mod.generating_function_consistency(p, t_grid, (0.1, 0.3, 0.5), n_top)


def _check_funk_hecke(p, n_top, samples, rng):
    worst = 0.0
    for n in range(n_top + 1):
        basis = orthonormalize(p, n)
        Y = basis.members[0]
        eta = _unit(rng, p)
        y_eta = float(Y.evaluate(tuple(eta)))
        rule = sphere_quadrature(p, 2 * n_top + 8)
        ts = rule.nodes @ eta
        y_vals = Y.evaluate_array(rule.nodes)
        for name in ("one", "t", "t2", "t3"):
            f = ZONAL_FUNCTIONS[name]
            sphere_side = float(np.sum(rule.weights * f(ts) * y_vals))
            lam = funk_hecke_coeff(p, n, f)
            worst = max(worst, abs(sphere_side - lam * y_eta))
    return worst


def _check_quadrature(p, n_top, samples, rng):
    worst = 0.0
    for degree in (4, 9):
        rule = sphere_quadrature(p, degree)
        omega = solid_angle(p)
        worst = max(worst, abs(float(np.sum(rule.weights)) - omega) / omega)
        alpha = (2, 4) + (0,) * (p - 2)
        exact = float(monomial_sphere_integral(alpha))
        approx = float(np.sum(rule.weights * (rule.nodes ** np.array(alpha)).prod(axis=1)))
        if degree >= sum(alpha):
            worst = max(worst, abs(approx - exact) / abs(exact))
    return worst


def _check_recurrence(p, n_top, samples, rng):
    worst = 0.0
    for a, b in ((0, 0), (Fraction(-1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)), (2, 2), (1, 0)):
        w = Weight(Fraction(a), Fraction(b))
        phis = gram_schmidt(w, n_top)
        rc = recurrence_coeffs(phis, w)
        worst = max(worst, recurrence_residual(phis, rc, w))
    return worst


def _check_harmonicity(p, n_top, samples, rng):
    worst = 0.0
    for n in range(n_top + 1):
        for member in harmonic_basis_raw(p, n):
            worst = max(worst, float(member.laplacian().max_abs_coeff()))
        lap = legendre_harmonic(p, n).laplacian()
        worst = max(worst, float(lap.max_abs_coeff()))
    return worst


def _check_bvp(p, n_top, samples, rng):
    worst = 0.0
    data = [
        bvp_mod.builtin_boundary(p, "coordinate"),
        bvp_mod.BoundaryData.from_polynomial(
            ExactPolynomial.monomial(p, (1, 1) + (0,) * (p - 2))
            + ExactPolynomial.variable(p, p - 1)
        ),
    ]
    for f in data:
        sol = bvp_mod.project_boundary(f, n_max=n_top)
        pts = []
        for _ in range(10):
            x = rng.normal(size=p)
            x *= 0.8 * rng.random() / np.linalg.norm(x)
            pts.append(x)
        pts = np.array(pts)
        a = bvp_mod.series_eval(sol, pts)
        b = bvp_mod.poisson_eval(f, pts, quad_degree=64)
        worst = max(worst, float(np.max(np.abs(a - b))))
    # the image-charge closed form needs p >= 3; its samples come last, so they move nothing before them
    for _ in range(5 if p >= 3 else 0):
        xb = _unit(rng, p)
        x0 = rng.normal(size=p)
        x0 *= 0.6 * rng.random() / np.linalg.norm(x0)
        worst = max(worst, abs(bvp_mod.green_function(p, xb, x0)))
    return worst


# name: (check, default dimensions or None for a check that has none and
# reports p-range 1, the option that sets its top degree or None for a fixed
# one, the default or fixed top degree, the least top degree at which the
# check compares anything, tolerance)
VERIFY_CHECKS = {
    "orthogonality": (_check_orthogonality, (2, 3, 4, 5), "n_max", 8, 1, 1e-10),
    "addition": (_check_addition, (3, 4, 5), "n", 4, 0, 1e-8),
    "generating-function": (_check_generating_function, (3, 4, 5), None, 60, 0, 1e-8),
    "funk-hecke": (_check_funk_hecke, (3, 4, 5), "n", 4, 0, 1e-7),
    "quadrature": (_check_quadrature, (2, 3, 4, 5, 6), None, 0, 0, 1e-12),
    "recurrence": (_check_recurrence, None, "n_max", 8, 2, 1e-9),
    "harmonicity": (_check_harmonicity, (2, 3, 4, 5), "n_max", 6, 0, 1e-12),
    "bvp": (_check_bvp, (3,), None, 4, 0, 1e-6),
}

# smallest accepted value of each numeric verify option
_VERIFY_MINIMA = {"p": 2, "n": 0, "n_max": 0, "samples": 1, "tol": 0}


def _cmd_verify(args) -> int:
    for name in args.checks:
        if name not in VERIFY_CHECKS:
            raise ValueError(f"unknown check {name!r}; available: {', '.join(sorted(VERIFY_CHECKS))}")
    for key, least in _VERIFY_MINIMA.items():
        value = getattr(args, key)
        # written so that NaN fails too
        if value is not None and not value >= least:
            raise ValueError(f"--{key.replace('_', '-')} must be at least {least}")
    for name in args.checks:
        _, _, degree, _, least, _ = VERIFY_CHECKS[name]
        value = None if degree is None else getattr(args, degree)
        if value is not None and value < least:
            raise ValueError(f"--{degree.replace('_', '-')} must be at least {least} for {name}")
    header = ["check", "p-range", "n-range", "max_residual", "tolerance", "pass"]
    rows = []
    for name in args.checks:
        check, ps, degree, n_top, _, tol = VERIFY_CHECKS[name]
        ps = (1,) if ps is None else ps if args.p is None else (args.p,)
        if degree is not None and getattr(args, degree) is not None:
            n_top = getattr(args, degree)
        tol = tol if args.tol is None else args.tol
        rng = default_rng(args.seed)
        worst = max([0.0] + [check(p, n_top, args.samples, rng) for p in ps])
        ns = range(n_top + 1)
        rows.append([name, _range_str(ps), _range_str(ns), worst, tol, bool(worst <= tol)])
    _render(args, [dict(zip(header, row)) for row in rows], header, rows)
    return 0 if all(row[-1] for row in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperharm",
        description="Spherical harmonics, ultraspherical Legendre polynomials, "
        "and the Dirichlet problem on the unit ball in p dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, p=False, n=False):
        if p:
            sp.add_argument("--p", type=int, required=True, help="ambient dimension")
        if n:
            sp.add_argument("--n", type=int, required=True, help="polynomial degree")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", help="also write the output to this file")

    sp = sub.add_parser("count", help="monomial and harmonic dimension counts")
    common(sp, p=True, n=True)
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("legendre", help="Legendre coefficient tables and values")
    common(sp, p=True, n=True)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--coeffs", action="store_true", help="coefficient row (default)")
    mode.add_argument("--eval", type=float, help="evaluate at this argument")
    mode.add_argument("--table", action="store_true", help="all rows up to --n")
    sp.set_defaults(func=_cmd_legendre)

    sp = sub.add_parser("basis", help="degree-n spherical harmonic basis")
    common(sp, p=True, n=True)
    sp.add_argument("--raw", action="store_true",
                    help="the exact integer members before normalization, orthogonal already; "
                    "in ascending j, the degree of their factor in x_1..x_{p-1}")
    sp.set_defaults(func=_cmd_basis)

    sp = sub.add_parser("quadrature", help="product quadrature rule for the sphere")
    common(sp, p=True)
    sp.add_argument("--degree", type=int, required=True, help="polynomial exactness target")
    sp.set_defaults(func=_cmd_quadrature)

    sp = sub.add_parser("funk-hecke", help="zonal kernel eigenvalue for degree n")
    common(sp, p=True, n=True)
    sp.add_argument("--degree", type=int, metavar="M",
                    help="Gauss nodes in t (default 128); the rule is exact through degree 2M - 1")
    sp.add_argument("--f", required=True, choices=sorted(ZONAL_FUNCTIONS), help="kernel name")
    sp.set_defaults(func=_cmd_funk_hecke)

    sp = sub.add_parser("solve", help="Dirichlet problem from a JSON description")
    sp.add_argument("--problem", required=True, help="path to the problem JSON file")
    sp.add_argument("--degree", type=int, help="kernel quadrature degree override")
    common(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="run named identity checks")
    names = ", ".join(sorted(VERIFY_CHECKS))
    sp.add_argument("checks", nargs="*", help=f"names: {names}; with none, no check runs, exit 0")
    sp.add_argument("--p", type=int, help="restrict to one dimension")
    sp.add_argument("--n", type=int, help="maximum degree for sampled checks")
    sp.add_argument("--n-max", type=int, dest="n_max", help="maximum degree for swept checks")
    sp.add_argument("--samples", type=int, default=100, help="random sample count")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.add_argument("--tol", type=float, help="tolerance override")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # JSONDecodeError is a ValueError; OverflowError is exact data beyond a double
    except (ValueError, OSError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
