"""hyperharm benchmark: runs one workload for a fixed time and checks every output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ball_solve --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``ball_solve``,
``project_warm``, ``basis_build`` and ``cli_session``.  Operations run one at
a time in worker processes (``worker.py``) with one BLAS thread, in whole
cycles, until the next cycle would end after ``--seconds``; at least two
cycles always run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every other cycle is traced, the last line reports the
per-layer metrics per cycle (``spans.py``) and the spans are written to
``perfbench/out/``.  The line before the last holds the details: the
environment, sample counts, the fail ratio with its base and the raw samples.
``--size tiny`` runs the same workloads at small sizes, for the benchmark's
own tests.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "baseline.json"

# a hung operation is killed and counted as failed; no cycle starts after
# RUN_LIMIT_S, so a run ends within 180 s unless its last operation hangs
OP_TIMEOUT_S = 75.0
RUN_LIMIT_S = 100.0
ERR_FLOOR = 1e-17  # err_digits of an exact result
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# cycles every run makes, however long they take, so that err_digits always
# covers the same operations and a traced run has an untraced cycle to compare
MIN_CYCLES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "err_digits": "digits",
    "ok_ratio": "ratio",
}
ENV_KEYS = ("python", "numpy", "scipy", "machine", "nproc", "blas_threads")


class Worker:
    """One worker process and its line protocol."""

    def __init__(self, workload: str, size: str, seed: int, workdir: Path, env: dict):
        self.t_spawn = time.monotonic()
        self.t_ready = None
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), workload, size, str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=workdir,
            env=env,
        )
        self._buf = bytearray()

    def _readline(self, timeout: float):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buf += chunk
        end = self._buf.index(b"\n")
        line = bytes(self._buf[:end])
        del self._buf[: end + 1]
        return json.loads(line)

    def wait_ready(self, timeout: float) -> bool:
        msg = self._readline(timeout)
        self.t_ready = time.monotonic()
        return bool(msg and msg.get("ready"))

    def call(self, request: dict, timeout: float):
        try:
            self.proc.stdin.write((json.dumps(request) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._readline(timeout)

    def close(self, timeout: float) -> int:
        """Close stdin and wait; a worker that does not exit is killed."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperharm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _baseline_mismatch(env: dict) -> list:
    """Environment fields that differ from those the baseline was measured in."""
    if not BASELINE.is_file():
        return []
    recorded = json.loads(BASELINE.read_text())["environment"]
    return [k for k in ENV_KEYS if recorded.get(k) != env[k]]


class Run:
    """The operations of one run and their outcomes."""

    def __init__(self, name: str, size: str, seed: int, trace: bool):
        self.workload = WORKLOADS[name]
        self.name = name
        self.size = size
        self.params = self.workload.sizes[size]
        self.seed = seed
        self.trace = trace
        self.ops = []
        self.setups = []
        self.rss = []
        self.state = {}
        self.workdir = OUT / "work" / name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update((var, str(BLAS_THREADS)) for var in BLAS_VARS)
        if self.workload.prepare:
            self.workload.prepare(self.params, seed, self.workdir)

    def _worker(self) -> Worker:
        return Worker(self.name, self.size, self.seed, self.workdir, self.env)

    def _record(self, index: int, cycle: int, traced: bool, inp, reply, wall_s, exit_ok=True):
        op = {"index": index, "cycle": cycle, "traced": traced, "wall_s": wall_s, "ok": False, "err": None}
        if reply and "rss_mb" in reply:
            self.rss.append(reply["rss_mb"])
        if reply and "outputs" in reply:
            op["op_s"] = reply["op_s"]
            op["spans"] = reply["spans"]
            out = reply["outputs"]
            if isinstance(out, dict) and "stdout" in out:
                op["stdout_bytes"] = len(out["stdout"].encode())
            try:
                ok, op["err"] = self.workload.check(self.params, inp, out, self.state)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                print(f"op {index}: malformed output: {exc!r}", file=sys.stderr)
                ok = False
            op["ok"] = bool(ok) and exit_ok
        elif reply:
            print(f"op {index}: {reply.get('error')}", file=sys.stderr)
        self.ops.append(op)

    def _fresh_op(self, index, cycle, traced, inp):
        worker = self._worker()
        reply = None
        if worker.wait_ready(OP_TIMEOUT_S):
            self.setups.append(worker.t_ready - worker.t_spawn)
            reply = worker.call({"input": inp, "trace": traced}, OP_TIMEOUT_S)
        code = worker.close(OP_TIMEOUT_S if reply else 0)
        if code:
            print(f"op {index}: worker exited with {code}", file=sys.stderr)
        self._record(index, cycle, traced, inp, reply, time.monotonic() - worker.t_spawn, code == 0)

    def _session_worker(self) -> Worker | None:
        worker = self._worker()
        if worker.wait_ready(OP_TIMEOUT_S):
            self.setups.append(worker.t_ready - worker.t_spawn)
            return worker
        worker.close(OP_TIMEOUT_S)
        return None

    def execute(self, seconds: float) -> None:
        w = self.workload
        session = None
        if not w.fresh_process:
            # an extra set-up that runs no operation, so setup_s is a median of two
            probe = self._session_worker()
            if probe:
                probe.close(OP_TIMEOUT_S)
            session = self._session_worker()
        start = time.monotonic()
        cycle_walls = []
        cycle = 0
        while True:
            elapsed = time.monotonic() - start
            if cycle >= MIN_CYCLES and (
                elapsed + statistics.median(cycle_walls) > seconds or elapsed > RUN_LIMIT_S
            ):
                break
            traced = self.trace and cycle % 2 == 0
            t_cycle = time.monotonic()
            for j in range(w.cycle):
                index = cycle * w.cycle + j
                inp = w.make_input(self.params, self.seed, index)
                if w.fresh_process:
                    self._fresh_op(index, cycle, traced, inp)
                    continue
                if session is None:
                    session = self._session_worker()
                t0 = time.monotonic()
                reply = session.call({"input": inp, "trace": traced}, OP_TIMEOUT_S) if session else None
                self._record(index, cycle, traced, inp, reply, time.monotonic() - t0)
                if reply is None and session:
                    session.close(0)
                    session = None
            cycle_walls.append(time.monotonic() - t_cycle)
            cycle += 1
        if session:
            session.close(OP_TIMEOUT_S)

    # -- results ---------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)

    def end_to_end(self) -> tuple[dict, dict]:
        good = [op for op in self.ops if op["ok"]]
        times = sorted(op["op_s"] for op in good)
        first = [op["err"] for op in self.ops if op["cycle"] < MIN_CYCLES]
        errs = [e for e in first if e is not None]
        worst = max(errs) if errs else math.inf
        # a run without a successful operation reports zeros; it is not correct anyway
        metrics = {
            "setup_s": statistics.median(self.setups) if self.setups else 0.0,
            "op_p50_s": statistics.median(times) if times else 0.0,
            "ops_per_s": len(good) / sum(op["wall_s"] for op in self.ops),
            "peak_rss_mb": max(self.rss) if self.rss else 0.0,
            "err_digits": -math.log10(max(worst, ERR_FLOOR)) if math.isfinite(worst) else 0.0,
            "ok_ratio": len(good) / len(self.ops),
        }
        detail = {
            "op_samples": len(times),
            "setup_samples": len(self.setups),
            "max_err": worst if math.isfinite(worst) else None,
        }
        # the highest percentile with at least ten samples beyond it
        if len(times) >= 20:
            pct = math.floor(100 * (1 - 10 / len(times)))
            detail[f"op_p{pct}_s"] = times[math.ceil(pct / 100 * len(times)) - 1]
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        traced = [op for op in self.ops if op["traced"] and op.get("spans")]
        untraced = [op["op_s"] for op in self.ops if not op["traced"] and op["ok"]]
        cycles = len({op["cycle"] for op in traced})
        metrics = spans.layer_metrics(traced, untraced, cycles)
        return metrics, {"traced_cycles": cycles, "traced_ops": len(traced), "untraced_ops": len(untraced)}

    def write_spans(self) -> Path:
        path = OUT / f"spans-{self.name}-seed{self.seed}.json"
        ops = [{"index": op["index"], "spans": op["spans"]} for op in self.ops if op.get("spans")]
        path.write_text(json.dumps({"workload": self.name, "seed": self.seed, "ops": ops}))
        return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hyperharm" / "__init__.py").is_file():
        print(f"error: no hyperharm sources at {SRC}", file=sys.stderr)
        return 2

    # compile once up front so that no measured import pays for it
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1, maxlevels=0)
    env = _environment(args.seed)
    mismatch = _baseline_mismatch(env)
    if mismatch:
        print(f"note: environment differs from {BASELINE.name} in {', '.join(mismatch)}; "
              "do not compare these figures with it", file=sys.stderr)

    run = Run(args.workload, args.size, args.seed, bool(args.trace))
    run.execute(args.seconds)
    if args.trace:
        metrics, detail = run.per_layer()
        units = dict(spans.PER_LAYER)
        detail["spans_file"] = str(run.write_spans().relative_to(ROOT))
    else:
        metrics, detail = run.end_to_end()
        units = END_TO_END_UNITS
    detail.update(workload=args.workload, size=args.size, seconds=args.seconds,
                  trace=args.trace, environment=env, baseline_env_mismatch=mismatch,
                  setups_s=run.setups,
                  ops=[{k: op.get(k) for k in ("index", "ok", "op_s", "wall_s", "err")} for op in run.ops])

    attempted = len(run.ops)
    detail["fail_ratio"] = {"value": run.failed / attempted, "failed": run.failed, "attempted": attempted}
    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:34s} {value:.6g} {units[name]}")
    print(f"{args.workload:13s} {'fail_ratio':34s} {run.failed / attempted:.6g} ratio "
          f"({run.failed} of {attempted})")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
