"""The repo's one Spark session configuration, plus the job table printer.

Jobs that need Spark expose ``main(spark)`` (importable from tests and
benchmarks) and build their own local session only when executed as a
script: ``spark-submit jobs/<name>.py`` or plain ``python jobs/<name>.py``.
The test suite's ``spark`` fixture (``conftest.py``) builds its session
with the same :func:`get_session`.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    """Local-mode session. Master (``SPARK_MASTER``, default ``local[*]``)
    and driver memory (``SPARK_DRIVER_MEM``, default Spark's) are read at
    JVM launch, so they go into ``PYSPARK_SUBMIT_ARGS`` unless the caller
    already set it; shuffle partitions (``SPARK_SHUFFLE_PARTITIONS``,
    default 64), Arrow and the broadcast threshold are session configs.

    Broadcast joins are disabled so shuffle/join plans actually exercise
    the shuffle path at small scale; a query that wants a broadcast join
    sets the threshold back for itself.
    """
    memory = os.environ.get("SPARK_DRIVER_MEM")
    memory = f"--driver-memory {memory} " if memory else ""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} {memory}"
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def print_table(rows: list[dict], title: str) -> None:
    """Fixed-width table printer for job outputs."""
    print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols))


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0 or (1e-3 <= abs(v) < 1e6):
            return f"{v:.3f}"
        return f"{v:.3e}"
    return str(v)
