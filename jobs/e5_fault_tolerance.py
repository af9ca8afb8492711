"""E5 (Fig. 16): non-interrupted fault tolerance — planner failures
under prefetch buffers of 2/4, loader failures with shadow vs replay,
plus a functional check of both recovery paths over real loaders.

Run: python jobs/e5_fault_tolerance.py
(The fault simulation and the synthetic loaders are numpy/pandas; no
Spark session is started.)
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import print_table  # noqa: E402

from repro.experiments.e5_fault import (  # noqa: E402
    functional_recovery,
    loader_panel,
    planner_panel,
)


def main(spark=None) -> list[dict]:
    results = planner_panel() + loader_panel()
    table = [
        {
            "scenario": r.label,
            "n_fetch_spikes": r.n_spikes,
            "total_time_s": r.total_time_s,
            "max_fetch_s": float(r.trace.fetch_s.max()),
        }
        for r in results
    ]
    print_table(table, "E5 — fault tolerance (Fig. 16)")

    for r in results:
        spikes = ", ".join(
            f"iter {i}: {r.trace.fetch_s[i]:.2f}s" for i in r.trace.spikes(0.05)
        )
        print(f"  {r.label}: spikes at [{spikes or 'none'}]")

    print_table(functional_recovery(), "E5 — functional recovery (stream equality)")
    return table


if __name__ == "__main__":
    main()
