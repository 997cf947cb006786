"""Worker process: imports hyperharm, sets up, then runs operations on request.

Usage: ``python3 perfbench/worker.py <workload> <size> <seed>``, started by
``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.

Protocol, one JSON object per line: the worker writes ``{"ready": true}``
once the import and the workload's set-up are done, then reads one request
``{"input": ..., "trace": bool}`` per line from stdin and answers each with
``{"op_s", "outputs", "spans", "rss_mb"}`` or ``{"error", "rss_mb"}``.  It
exits when stdin closes.  Operation stdout (the CLI's) is captured, so the
protocol owns the real stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"


def _send(msg: dict) -> None:
    sys.__stdout__.write(json.dumps(msg) + "\n")
    sys.__stdout__.flush()


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(workload, params, request) -> dict:
    inp = request["input"]
    recorder = spans.Recorder() if request["trace"] else None
    restore = None
    if recorder:
        restore, missing = spans.install(recorder)
        if missing:
            print(f"not traced, missing from hyperharm: {', '.join(missing)}", file=sys.stderr)
    try:
        t0 = perf_counter()
        with recorder.span(spans.ROOT) if recorder else nullcontext():
            result = workload.operation(params, inp)
        op_s = perf_counter() - t0
    finally:
        if restore:
            restore()
    return {
        "op_s": op_s,
        "outputs": workload.collect(params, inp, result),
        "spans": recorder.spans if recorder else None,
        "rss_mb": _rss_mb(),
    }


def main() -> None:
    name, size, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    workload = WORKLOADS[name]
    params = workload.sizes[size]
    import hyperharm

    if not Path(hyperharm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"hyperharm imported from {hyperharm.__file__}, not from {SRC}")
    if workload.setup:
        workload.setup(params, seed)
    _send({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        try:
            reply = _run(workload, params, request)
        except Exception as exc:  # a failed operation is counted and the session goes on
            traceback.print_exc()
            reply = {"error": repr(exc), "rss_mb": _rss_mb()}
        _send(reply)


if __name__ == "__main__":
    main()
