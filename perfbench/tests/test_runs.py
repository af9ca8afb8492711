"""Tiny-size runs of every workload through the command line, traced and
untraced, and the refusal to run without the program's sources."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (unit, _) in harness.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == ["coyo_stream", "e2_column"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["coyo_stream", "e2_column"])
def test_tiny_run(workload, trace):
    out = run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # coyo_stream: rounds of 3 steps + 2 recoveries, the replay one fails
    share = 1 / 5 if workload == "coyo_stream" else 0
    assert result["failed"] == share * result["attempted"]
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run(tmp_path, "coyo_stream", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
