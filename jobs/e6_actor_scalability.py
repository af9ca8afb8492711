"""E6 (Appendix B, Fig. 18): data-fetch latency of direct loader→trainer
transfer vs the Data-Constructor path at 1k/2k/4k GPUs.

Run: python jobs/e6_actor_scalability.py
(The network model is numpy; no Spark session is started.)
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _session import print_table  # noqa: E402

from repro.experiments.e6_scalability import run  # noqa: E402


def main(spark=None) -> list[dict]:
    pts = run()
    table = [
        {
            "gpus": p.n_gpus,
            "direct_ms": p.direct_latency_ms,
            "via_constructor_ms": p.constructor_latency_ms,
            "slowdown": p.slowdown,
            "direct_collapsed": p.direct_collapsed,
        }
        for p in pts
    ]
    print_table(
        table,
        "E6 — actor-model scalability (Fig. 18; paper: ~10x at 2k, collapse at 4k)",
    )
    return table


if __name__ == "__main__":
    main()
