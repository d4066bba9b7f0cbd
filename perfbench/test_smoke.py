"""Smoke test of the benchmark at minimal size (one second, the cheapest
workload).  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def _last_lines(proc, n):
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-n:]]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(trace, key):
    proc = _bench("--workload", "linear-checks", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    (result,) = _last_lines(proc, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[key]}


def test_traced_counts_repeat_for_the_same_seed():
    digests = []
    for _ in range(2):
        proc = _bench("--workload", "linear-checks", "--seed", "5", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        summary, _ = _last_lines(proc, 2)
        digests.append(summary["counts_sha256"])
    assert digests[0] == digests[1]


def test_gate_fires_on_a_wrong_expected_verdict():
    bench = run.Bench("linear-checks", seed=3, seconds=0.1, trace=False)
    bench.setup()
    op = next(o for o in bench.ops if o.key.startswith("analyze/ex4/original/ideal/"))
    assert op.expect == "fail"
    op.expect = "pass"
    result = bench.measure()["result"]
    assert not result["correct"]
    assert result["failed"] == run.MIN_PASSES
    assert result["metrics"] == {}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench")
    proc = _bench(
        "--workload", "linear-checks", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
