"""Smoke test of the program calls the benchmark makes: a tiny
``coyo_stream`` run of ``perfbench/run.py``, traced and untraced. The
run builds ``LoadingPlan`` by keyword, calls ``Planner.constructor_do_plan``
and ``ClientPlaceTree.from_degrees``, and (traced) wraps program methods
by name, so a renamed or reshaped call fails here rather than only in the
benchmark. ``e2_column`` is left out: its JVM start costs ~20 s, and the
E2 tests cover its calls."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_coyo_stream_tiny_run(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coyo_stream",
         "--seed", "5", "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert not (ROOT / ".perfbench_tmp").exists()
