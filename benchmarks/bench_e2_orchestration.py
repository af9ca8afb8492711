"""E2 benchmark (Fig. 13): one representative orchestration column —
Llama-12B + ViT-2B on coyo700m at 8k context, all three strategies,
as one ``run_grid`` call over one buffer (what jobs/e2_orchestration.py
runs per column). The full grid is produced by jobs/e2_orchestration.py.
The Spark jobs one column runs, counted with a ``statusTracker`` job
group, go into ``extra_info["spark_jobs_per_column"]``."""
from repro.experiments.e2_orchestration import run_grid


def _column(spark):
    cells = run_grid(
        spark,
        backbones=("llama-12b",),
        encoders=("vit-2b",),
        context_lengths=(8192,),
        datasets=("coyo700m",),
        n_steps=3,
    )
    return {c.strategy: c.throughput for c in cells}


def _jobs_per_column(spark) -> int:
    sc = spark.sparkContext
    sc.setJobGroup("bench-e2-column", "bench-e2-column")
    try:
        _column(spark)
    finally:
        sc.setJobGroup("", "")
    return len(sc.statusTracker().getJobIdsForGroup("bench-e2-column"))


def test_e2_orchestration_column(benchmark, spark):
    tput = benchmark.pedantic(_column, args=(spark,), rounds=3, iterations=1)
    benchmark.extra_info["spark_jobs_per_column"] = _jobs_per_column(spark)
    assert tput["hybrid"] > tput["vanilla"]
    assert tput["backbone"] > tput["vanilla"]
