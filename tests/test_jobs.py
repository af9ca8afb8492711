"""Smoke tests: every job entrypoint runs and emits rows."""
import importlib.util
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).parent.parent / "jobs"


def _load(name: str):
    sys.path.insert(0, str(JOBS))
    try:
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod
    finally:
        sys.path.remove(str(JOBS))


def test_e1_job(capsys):
    rows = _load("e1_preprocessing_arch").main(n_iters=20)
    assert len(rows) == 12  # 3 systems x 2 gpu counts x 2 datasets
    assert "E1" in capsys.readouterr().out


def test_e2_job_quick(spark, capsys):
    rows = _load("e2_orchestration").main(spark, quick=True)
    assert len(rows) == 9  # 1 model pair x 3 ctx x 3 strategies
    out = capsys.readouterr().out
    assert "speedup" in out


def test_e3_job(capsys):
    rows = _load("e3_parallelism_redundancy").main()
    assert len(rows) == 16  # 4x4 grid
    assert "Fig. 14" in capsys.readouterr().out


def test_e4_job(capsys):
    rows = _load("e4_source_redundancy").main()
    assert len(rows) == 16  # 2 datasets x 4 worker counts x 2 sp
    assert "Fig. 15" in capsys.readouterr().out


def test_e5_job(capsys):
    rows = _load("e5_fault_tolerance").main()
    assert len(rows) == 4
    assert "shadow" in capsys.readouterr().out


def test_e6_job(capsys):
    rows = _load("e6_actor_scalability").main()
    assert len(rows) == 3
    assert "collapse" in capsys.readouterr().out.lower()
