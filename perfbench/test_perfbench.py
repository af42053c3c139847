"""Quick mode of the benchmark: a few ops per workload, traced and not.

Run from the repository root with ``python3 -m pytest perfbench``.  It
asserts that every metric ``BENCHMARK.json`` names is emitted, that no
op fails and that every correctness check passes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run(workload, trace):
    result, text = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        covered = float(re.search(r"covers ([\d.]+)%", text)[1])
        assert covered >= 90.0, text
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero
    without printing a result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (bench / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
