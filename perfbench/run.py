"""Benchmark of the §3 loading loop (top-up -> summary -> plan -> prepare
-> construct). Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload coyo_stream --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics). See perfbench/README.md.
"""
from __future__ import annotations

import os

# single-threaded BLAS, before numpy is first imported (here or in a worker)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
#: Spark local[k]: fixed, and never more than the machine has
SPARK_CORES = min(4, os.cpu_count() or 1)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("coyo_stream", "e2_column"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a small configuration for the benchmark's own tests")
    return p.parse_args(argv)


def run(args: argparse.Namespace, tmp: Path) -> dict:
    import harness
    import workloads

    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    spark = None
    try:
        if workloads.needs_spark(args.workload):
            spark = harness.start_spark(tmp, SPARK_CORES)
        wl = workloads.build(args.workload, args.size, args.seed, tracer, spark)
        try:
            setup_s, rec = harness.measure(wl, args.seconds, tracer)
        finally:
            tracer.close()
        metrics = (tracer.metrics() if args.trace
                   else harness.end_to_end(setup_s, rec, wl.sim_tokens_per_s()))
        return {"correct": True, "attempted": rec.attempted, "failed": rec.failed,
                "metrics": metrics}
    finally:
        if spark is not None:
            harness.stop_spark(spark)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    from harness import CheckFailed

    try:
        result = run(args, tmp)
    except CheckFailed as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
