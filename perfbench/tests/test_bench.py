"""The benchmark's own tests.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
They take about a minute: every workload runs at its tiny size, traced and
untraced.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "7", "--seconds", "1", "--size", "tiny"]


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _bench(["--workload", workload, "--trace", str(trace), *TINY])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_wrong_reference_fails_the_check(monkeypatch, capsys):
    true_count = workloads.harmonic_count
    monkeypatch.setattr(workloads, "harmonic_count", lambda p, n: true_count(p, n) + 1)
    assert run.main(["--workload", "basis_build", "--trace", "0", *TINY]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert detail["fail_ratio"]["value"] == 1.0
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "basis_build", "--trace", "0", *TINY], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
