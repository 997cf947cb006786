"""Figures the CI jobs print to stderr and do not gate, each probe in a fresh interpreter:

- verify: the peak RSS of all verify checks;
- ball: a cold criterion-08 ball solve (p = 5, 3 terms of degree 3, n_max 4, 50 points at |x| <= 0.8),
  its time, peak RSS and the gap between the series and the kernel;
- warm: a warm library session, the benchmark's `project_warm` op (callable harmonic data at p = 4,
  n_max 6, then 50 one-point `series_eval` calls at |x| = 0.8), timed over 20 ops after one warm-up;
- series: warm one-point calls, the median microseconds of a `series_eval` at the warm probe's (4, 6)
  and the ball probe's (5, 4), and of a `poisson_eval` on the ball probe's data, over 15 repeats of
  50 points each;
- poly: the one polynomial core, the median milliseconds of 5 cold calls, every cache cleared before
  each: `legendre_coeffs(3, 300)`, `legendre_harmonic(5, 10)`, `_rodrigues_poly(5, 40)` and
  `verify orthogonality recurrence harmonicity`;
- high_degree: cold projections past the monomial count once used as a budget, each priced by its tables: builtin
  `exponential` data at (p, n_max) = (3, 80) and (3, 120) and `coordinate` data at (2, 5000), each with its time,
  its tracemalloc peak (a second cold call) and its `projection_error`; at (3, 80) also `series_eval` on the
  13,448 nodes of its degree-162 rule scaled to |x| = 0.8;
- near_sphere: a cold kernel point at p = 3 for the data x1 + x1 x2, whose harmonic extension is itself, at
  |x| = 0.99 and at 0.999, each with every rule cache cleared first: its time, the peak RSS so far and its error.

Run from the root of a checkout:

    PYTHONPATH=src python tests/ci_probes.py          # every probe
    PYTHONPATH=src python tests/ci_probes.py warm     # one probe

The file name keeps it out of pytest's collection.
"""

import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

VERIFY_CHECKS = "orthogonality addition generating-function funk-hecke quadrature recurrence harmonicity bvp"


def _peak_rss() -> str:
    return f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss} kB"


def verify() -> str:
    from hyperharm.cli import run

    run(["verify", *VERIFY_CHECKS.split()])
    return f"all verify checks: {_peak_rss()}"


def ball() -> str:
    from hyperharm import bvp
    from hyperharm.polyalg import FloatPolynomial

    terms = {(3, 0, 0, 0, 0): 0.75, (0, 1, 1, 0, 1): -0.625, (0, 0, 0, 2, 0): 0.5}
    f = bvp.BoundaryData.from_polynomial(FloatPolynomial(5, terms))
    x = np.random.default_rng(3).normal(size=(50, 5))
    pts = np.linspace(0.016, 0.8, 50)[:, None] * x / np.linalg.norm(x, axis=1)[:, None]
    start = time.perf_counter()
    sol = bvp.project_boundary(f, 4)
    gap = np.abs([bvp.series_eval(sol, x0) for x0 in pts] - bvp.poisson_eval(f, pts, quad_degree=68)).max()
    return (f"cold ball solve, p = 5, degree 3, n_max 4, 50 points: {1e3 * (time.perf_counter() - start):.1f} ms, "
            f"{_peak_rss()}, series vs kernel {gap:.1e}")


def warm() -> str:
    from hyperharm import bvp

    rng = np.random.default_rng(5)
    times, worst = [], 0.0
    for op in range(21):
        u, v = np.linalg.qr(rng.normal(size=(4, 2)))[0].T  # |u| = |v| and u orthogonal to v
        x = rng.normal(size=(50, 4))
        pts = 0.8 * x / np.linalg.norm(x, axis=1)[:, None]
        exact = np.exp(pts @ u) * np.cos(pts @ v)  # harmonic, so it is the solution inside the ball
        start = time.perf_counter()
        sol = bvp.project_boundary(bvp.BoundaryData.from_callable(4, lambda y: np.exp(y @ u) * np.cos(y @ v)), 6)
        series = [bvp.series_eval(sol, x0) for x0 in pts]
        if op:  # the first op is the warm-up, which builds the rules and the transform's tables
            times.append(time.perf_counter() - start)
        worst = max(worst, float(np.abs(np.array(series) - exact).max()))
    return (f"warm session, p = 4, n_max 6, projection and 50 one-point series calls: median "
            f"{1e3 * statistics.median(times):.2f} ms over 20 ops (min {1e3 * min(times):.2f}), error {worst:.1e}")


def series() -> str:
    from hyperharm import bvp
    from hyperharm.polyalg import FloatPolynomial

    rng = np.random.default_rng(5)
    u, v = np.linalg.qr(rng.normal(size=(4, 2)))[0].T
    warm = bvp.project_boundary(bvp.BoundaryData.from_callable(4, lambda y: np.exp(y @ u) * np.cos(y @ v)), 6)
    terms = {(3, 0, 0, 0, 0): 0.75, (0, 1, 1, 0, 1): -0.625, (0, 0, 0, 2, 0): 0.5}
    f = bvp.BoundaryData.from_polynomial(FloatPolynomial(5, terms))
    ball = bvp.project_boundary(f, 4)
    calls = (("series (4, 6)", 4, warm, bvp.series_eval), ("series (5, 4)", 5, ball, bvp.series_eval),
             ("kernel p = 5", 5, f, bvp.poisson_eval))
    figures = []
    for name, p, arg, call in calls:
        x = rng.normal(size=(50, p))
        pts = 0.8 * x / np.linalg.norm(x, axis=1)[:, None]
        call(arg, pts[0])  # the kernel's first call builds its rules
        times = []
        for _ in range(15):
            start = time.perf_counter()
            for x0 in pts:
                call(arg, x0)
            times.append((time.perf_counter() - start) / len(pts))
        figures.append(f"{name} {1e6 * statistics.median(times):.1f} us")
    return f"warm one-point calls, median of 15 x 50: {', '.join(figures)}"


def poly() -> str:
    from hyperharm import bvp, cli, geometry, harmonic, legendre, orthopoly, polyalg

    calls = (("legendre_coeffs(3, 300)", lambda: legendre.legendre_coeffs(3, 300)),
             ("legendre_harmonic(5, 10)", lambda: harmonic.legendre_harmonic(5, 10)),
             ("_rodrigues_poly(5, 40)", lambda: legendre._rodrigues_poly(5, 40)),
             ("verify orthogonality recurrence harmonicity",
              lambda: cli.run(["verify", "orthogonality", "recurrence", "harmonicity"])))
    caches = [f for m in (bvp, cli, geometry, harmonic, legendre, orthopoly, polyalg)
              for f in vars(m).values() if hasattr(f, "cache_clear")]
    figures = []
    for name, call in calls:
        times = []
        for _ in range(5):
            for f in caches:
                f.cache_clear()
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        figures.append(f"{name} {1e3 * statistics.median(times):.1f} ms")
    return f"cold polynomial calls, median of 5: {', '.join(figures)}"


def high_degree() -> str:
    from hyperharm import bvp, geometry, harmonic

    def cold(f, n_max):
        for cache in (geometry.sphere_quadrature, harmonic._transform_tables, harmonic._plan):
            cache.cache_clear()
        return bvp.project_boundary(f, n_max)

    figures = []
    for p, n_max, kind in ((3, 80, "exponential"), (3, 120, "exponential"), (2, 5000, "coordinate")):
        f = bvp.builtin_boundary(p, kind)
        start = time.perf_counter()
        cold(f, n_max)
        seconds = time.perf_counter() - start
        tracemalloc.start()  # a second call: tracemalloc slows the first several times over
        sol = cold(f, n_max)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        figures.append(f"{kind} ({p}, {n_max}) {seconds:.2f} s, peak {peak / 2**20:.0f} MiB, "
                       f"projection_error {sol.projection_error:.1e}")
        if (p, n_max) == (3, 80):
            pts = 0.8 * geometry.sphere_quadrature(3, 162).nodes
            start = time.perf_counter()
            bvp.series_eval(sol, pts)
            figures.append(f"series_eval on {len(pts)} points {time.perf_counter() - start:.2f} s")
    return f"high-degree projections, cold: {'; '.join(figures)}"


def near_sphere() -> str:
    from fractions import Fraction

    from hyperharm import bvp, geometry, orthopoly
    from hyperharm.polyalg import ExactPolynomial

    f = bvp.BoundaryData.from_polynomial(ExactPolynomial(3, {(1, 0, 0): Fraction(1), (1, 1, 0): Fraction(1)}))
    figures = []
    for radius in (0.99, 0.999):
        for cache in (bvp._graded_rule, orthopoly._gauss_rule_cached, geometry.sphere_quadrature):
            cache.cache_clear()
        x = radius * np.array([0.6, 0.48, 0.64])
        start = time.perf_counter()
        value = bvp.poisson_eval(f, x)
        figures.append(f"|x| = {radius} {1e3 * (time.perf_counter() - start):.1f} ms, {_peak_rss()}, "
                       f"error {abs(value - (x[0] + x[0] * x[1])):.1e}")
    return f"cold kernel points near the sphere, p = 3: {'; '.join(figures)}"


PROBES = {"verify": verify, "ball": ball, "warm": warm, "series": series, "poly": poly, "high_degree": high_degree,
          "near_sphere": near_sphere}

if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(PROBES[sys.argv[1]](), file=sys.stderr)
    else:
        for name in PROBES:  # the verify output goes nowhere; the figures go to stderr
            subprocess.run([sys.executable, __file__, name], stdout=subprocess.DEVNULL, check=True)
