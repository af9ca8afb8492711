"""E3 (Fig. 14 + Appendix A Fig. 17): simulated memory cost ratio of
OVERLORD vs Colocated over a CP x PP grid, plus batch-size, worker-count
and cluster-size ablations.

Run: python jobs/e3_parallelism_redundancy.py
(The memory model is numpy/pandas; no Spark session is started.)
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import print_table  # noqa: E402

from repro.experiments.e3_redundancy import run_ablations, run_grid  # noqa: E402


def main(spark=None) -> list[dict]:
    cells = run_grid()
    table = [
        {"cp": c.cp, "pp": c.pp, "overlord_over_colocated": c.ratio} for c in cells
    ]
    print_table(table, "E3 — memory cost ratio grid (Fig. 14; <1 = OVERLORD cheaper)")

    abl = run_ablations()
    for name, cells in abl.items():
        print_table(
            [
                {
                    "cp": c.cp,
                    "pp": c.pp,
                    "batch": c.group_batch,
                    "workers": c.workers,
                    "nodes": c.n_nodes,
                    "ratio": c.ratio,
                }
                for c in cells
            ],
            f"E3 ablation — {name} (Fig. 17)",
        )
    return table


if __name__ == "__main__":
    main()
