"""E4 (Fig. 15): host-memory occupation vs worker count and the effect
of source partitioning (SP=2), navit-100 vs navit_data.

Run: python jobs/e4_source_redundancy.py
(The measurement instantiates synthetic Source Loader actors directly;
no Spark session is started.)
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import print_table  # noqa: E402

from repro.experiments.e4_source import run_grid  # noqa: E402


def main(spark=None) -> list[dict]:
    rows = run_grid()
    table = [
        {
            "dataset": r.dataset,
            "workers": r.workers,
            "sp": r.sp,
            "total_mem_gb": r.total_mem_gb,
            "n_loaders": r.n_loaders,
        }
        for r in rows
    ]
    print_table(table, "E4 — source redundancy removal (Fig. 15)")
    return table


if __name__ == "__main__":
    main()
