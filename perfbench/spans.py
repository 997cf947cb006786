"""Spans around the calls each hyperharm layer exposes to the layer above.

``install(recorder)`` replaces each traced function at the names its callers
import (``hyperharm.bvp.sphere_quadrature``, ``HarmonicBasis.evaluate_members``,
...) by a wrapper that records one span, and returns a function that puts the
originals back.  A span is ``[name, start, end, parent, attrs]``: ``parent``
is the index of the enclosing span in the same list (-1 for the root) and
``attrs`` holds sizes and cache outcomes.  Spans stay in memory; the worker
returns them with the operation's result.

``layer_metrics`` turns the spans of the traced cycles into the per-layer
metrics of ``BENCHMARK.json``.  Names ending in ``_self_s``, and
``bvp.kernel_s`` and ``cli.command_s``, are self times: the span's duration
minus the part covered by its child spans.  Other ``_s`` names are inclusive
durations.  ``<layer>.self_s`` is the self time of all spans of that layer;
``bench.self_s`` is the part of the operation outside every traced call.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "op"
LEGENDRE_NAMES = ("LegendreTable", "funk_hecke_coeff", "legendre_coeffs", "legendre_eval")


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        attrs = {}
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record[2] = perf_counter()

    def wrap(self, name, fn, sizes=None, cached=None):
        """``fn`` recorded as span ``name``; ``sizes(args, result)`` adds
        attributes and ``cached`` is the lru-cached function whose
        ``cache_info()`` delta marks the call as a hit or a miss."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                misses = cached.cache_info().misses if cached else 0
                result = fn(*args, **kwargs)
                if cached:
                    attrs["miss"] = cached.cache_info().misses - misses
                if sizes:
                    attrs.update(sizes(args, result))
            return result

        return wrapper


def _rule_sizes(args, rule):
    return {"nodes": len(rule), "bytes": rule.nodes.nbytes + rule.weights.nbytes}


def _points(x):
    return int(np.atleast_2d(np.asarray(x, dtype=float)).shape[0])


def _cached(fn):
    return fn if hasattr(fn, "cache_info") else None


def install(recorder: Recorder):
    """Wrap the traced functions.

    Returns a callable that restores the originals, and the traced names the
    library no longer has, whose metrics then read 0.
    """
    from hyperharm import bvp, cli, geometry, harmonic, legendre, orthopoly, polyalg

    rule = dict(sizes=_rule_sizes, cached=_cached(geometry.sphere_quadrature))
    basis = dict(
        sizes=lambda args, b: {"members": len(b.members)},
        cached=_cached(harmonic.orthonormalize),
    )
    raw = dict(cached=_cached(harmonic.harmonic_basis_raw))
    targets = [
        (bvp, "sphere_quadrature", "geometry.sphere_quadrature", rule),
        (cli, "sphere_quadrature", "geometry.sphere_quadrature", rule),
        (orthopoly, "gauss_rule", "orthopoly.gauss_rule", {}),
        (legendre, "gauss_rule", "orthopoly.gauss_rule", {}),
        (cli, "gram_schmidt", "orthopoly.gram_schmidt", {}),
        (bvp, "orthonormalize", "harmonic.orthonormalize", basis),
        (cli, "orthonormalize", "harmonic.orthonormalize", basis),
        (harmonic, "orthonormalize", "harmonic.orthonormalize", basis),
        (harmonic, "harmonic_basis_raw", "harmonic.harmonic_basis_raw", raw),
        (cli, "harmonic_basis_raw", "harmonic.harmonic_basis_raw", raw),
        (harmonic, "exact_rank", "harmonic.exact_rank", {}),
        (
            harmonic.HarmonicBasis,
            "evaluate_members",
            "harmonic.evaluate_members",
            dict(sizes=lambda args, r: {"point_members": _points(args[1]) * len(args[0].members)}),
        ),
        (
            polyalg.FloatPolynomial,
            "evaluate_array",
            "polyalg.evaluate_array",
            dict(sizes=lambda args, r: {"point_terms": _points(args[1]) * len(args[0].terms)}),
        ),
        (polyalg.ExactPolynomial, "laplacian", "polyalg.laplacian", {}),
        (
            bvp.BoundaryData,
            "values_at",
            "bvp.values_at",
            dict(sizes=lambda args, r: {"points": _points(args[1])}),
        ),
        (bvp, "project_boundary", "bvp.project_boundary", {}),
        (bvp, "series_eval", "bvp.series_eval", {}),
        (
            bvp,
            "poisson_eval",
            "bvp.poisson_eval",
            dict(sizes=lambda args, r: {"points": _points(args[1])}),
        ),
        *((cli, fn, f"legendre.{fn}", {}) for fn in LEGENDRE_NAMES),
        (cli, "run", "cli.run", {}),
    ]
    saved = []
    missing = []
    for owner, attr, name, options in targets:
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        # an inherited method is shadowed on the class and later deleted again
        saved.append((owner, attr, original if attr in owner.__dict__ else None))
        setattr(owner, attr, recorder.wrap(name, original, **options))

    def restore():
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore, missing


# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("geometry.rule_build_s", "s"),
    ("geometry.rule_nodes", "count"),
    ("geometry.rule_mb", "MB"),
    ("geometry.rule_cache_hits", "count"),
    ("geometry.rule_cache_misses", "count"),
    ("bvp.kernel_s", "s"),
    ("bvp.kernel_pairs", "count"),
    ("bvp.boundary_values_s", "s"),
    ("bvp.boundary_value_points", "count"),
    ("harmonic.eval_s", "s"),
    ("harmonic.eval_point_members", "count"),
    ("polyalg.evaluate_array_s", "s"),
    ("polyalg.point_terms", "count"),
    ("bvp.series_s", "s"),
    ("bvp.project_self_s", "s"),
    ("harmonic.raw_basis_s", "s"),
    ("harmonic.rank_s", "s"),
    ("harmonic.orthonormalize_self_s", "s"),
    ("harmonic.members", "count"),
    ("harmonic.basis_cache_hits", "count"),
    ("harmonic.basis_cache_misses", "count"),
    ("polyalg.laplacian_s", "s"),
    ("polyalg.laplacian_calls", "count"),
    ("orthopoly.gauss_rule_s", "s"),
    ("orthopoly.gauss_rule_calls", "count"),
    ("orthopoly.gram_schmidt_s", "s"),
    ("legendre.call_s", "s"),
    ("legendre.calls", "count"),
    ("cli.command_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("polyalg.self_s", "s"),
    ("geometry.self_s", "s"),
    ("harmonic.self_s", "s"),
    ("orthopoly.self_s", "s"),
    ("legendre.self_s", "s"),
    ("bvp.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
)

# span name -> the metric that sums its inclusive duration
_INCLUSIVE = {
    "bvp.values_at": "bvp.boundary_values_s",
    "harmonic.evaluate_members": "harmonic.eval_s",
    "polyalg.evaluate_array": "polyalg.evaluate_array_s",
    "bvp.series_eval": "bvp.series_s",
    "harmonic.harmonic_basis_raw": "harmonic.raw_basis_s",
    "harmonic.exact_rank": "harmonic.rank_s",
    "polyalg.laplacian": "polyalg.laplacian_s",
    "orthopoly.gauss_rule": "orthopoly.gauss_rule_s",
    "orthopoly.gram_schmidt": "orthopoly.gram_schmidt_s",
}
# span name -> the metric that sums its self time
_SELF = {
    "bvp.poisson_eval": "bvp.kernel_s",
    "bvp.project_boundary": "bvp.project_self_s",
    "harmonic.orthonormalize": "harmonic.orthonormalize_self_s",
    "cli.run": "cli.command_s",
}
# span name -> (attribute, the metric that sums it)
_SIZES = {
    "bvp.values_at": ("points", "bvp.boundary_value_points"),
    "harmonic.evaluate_members": ("point_members", "harmonic.eval_point_members"),
    "polyalg.evaluate_array": ("point_terms", "polyalg.point_terms"),
}
# span name -> the metric that counts its calls
_CALLS = {
    "polyalg.laplacian": "polyalg.laplacian_calls",
    "orthopoly.gauss_rule": "orthopoly.gauss_rule_calls",
}
# layers with a <layer>.self_s metric; cli's self time is cli.command_s
_SELF_LAYERS = ("polyalg", "geometry", "harmonic", "orthopoly", "legendre", "bvp", "bench")


def _add_op(totals, spans):
    child = [0.0] * len(spans)
    rule_nodes = defaultdict(int)  # parent span -> nodes of the rules it asked for
    for name, start, end, parent, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
            if name == "geometry.sphere_quadrature":
                rule_nodes[parent] += attrs.get("nodes", 0)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        self_s = dur - child[i]
        layer = "bench" if name == ROOT else name.split(".")[0]
        if layer in _SELF_LAYERS:
            totals[f"{layer}.self_s"] += self_s
        totals["trace.spans"] += 1
        if name in _INCLUSIVE:
            totals[_INCLUSIVE[name]] += dur
        if name in _SELF:
            totals[_SELF[name]] += self_s
        if name in _SIZES:
            key, metric = _SIZES[name]
            totals[metric] += attrs.get(key, 0)
        if name in _CALLS:
            totals[_CALLS[name]] += 1
        if name == "geometry.sphere_quadrature" and "miss" in attrs:
            if attrs["miss"]:
                totals["geometry.rule_build_s"] += dur
                totals["geometry.rule_nodes"] += attrs["nodes"]
                totals["geometry.rule_mb"] += attrs["bytes"] / 1e6
                totals["geometry.rule_cache_misses"] += 1
            else:
                totals["geometry.rule_cache_hits"] += 1
        elif name in ("harmonic.orthonormalize", "harmonic.harmonic_basis_raw") and "miss" in attrs:
            totals["harmonic.basis_cache_misses" if attrs["miss"] else "harmonic.basis_cache_hits"] += 1
            if name == "harmonic.orthonormalize" and attrs["miss"]:
                totals["harmonic.members"] += attrs["members"]
        elif name == "bvp.poisson_eval":
            totals["bvp.kernel_pairs"] += attrs.get("points", 0) * rule_nodes[i]
        elif name.startswith("legendre."):
            totals["legendre.call_s"] += dur
            totals["legendre.calls"] += 1


def layer_metrics(traced_ops, untraced_op_s, cycles: int) -> dict:
    """Per-layer metrics per cycle, from the traced operations of a run.

    ``traced_ops`` holds one dict per traced operation with its ``spans``,
    ``op_s`` and ``stdout_bytes``; ``untraced_op_s`` holds the operation
    times of the untraced operations of the same run, which give the
    tracing overhead.
    """
    totals = defaultdict(float)
    for op in traced_ops:
        _add_op(totals, op["spans"])
        totals["cli.stdout_bytes"] += op.get("stdout_bytes", 0)
    metrics = {name: totals[name] / max(cycles, 1) for name, _ in PER_LAYER}
    traced_s = [op["op_s"] for op in traced_ops]
    if traced_s:
        metrics["trace.op_s"] = statistics.fmean(traced_s)
        if untraced_op_s:
            metrics["trace.overhead_s"] = statistics.fmean(traced_s) - statistics.fmean(untraced_op_s)
    return metrics
