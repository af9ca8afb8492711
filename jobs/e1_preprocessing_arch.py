"""E1 (Fig. 12): memory per node + data-fetch time, Colocated vs
OVERLORD-Vanilla vs OVERLORD-auto on 288/576 GPUs, navit-100/navit_data.

Run: python jobs/e1_preprocessing_arch.py
(The memory model and the feed simulation are numpy/pandas; no Spark
session is started.)
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import print_table  # noqa: E402

from repro.experiments.e1_preprocessing import reduction_factors, run_all  # noqa: E402


def main(spark=None, n_iters: int = 100) -> list[dict]:
    rows = run_all(n_iters=n_iters)
    table = [
        {
            "system": r.system,
            "gpus": r.n_gpus,
            "dataset": r.dataset,
            "mem_per_node_gb": r.mem_per_node_gb,
            "fetch_mean_s": r.fetch_mean_s,
            "fetch_std_s": r.fetch_std_s,
            "feeds_ok": r.feeds_ok,
        }
        for r in rows
    ]
    print_table(table, "E1 — preprocessing architecture (Fig. 12)")
    red = [
        {"gpus": g, "dataset": d, "colocated_over_best_overlord": v}
        for (g, d), v in sorted(reduction_factors(rows).items())
    ]
    print_table(red, "E1 — memory reduction factors (paper: up to 13.5x)")
    return table


if __name__ == "__main__":
    main()
