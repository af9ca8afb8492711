"""E3 — parallelism redundancy removal (§7.4 Fig. 14 + Appendix A Fig. 17).

The paper's 'simulated backend': dry-run memory accounting of OVERLORD
vs the colocated loader over a CP x PP grid at BS=512 (global batch),
512 nodes, 4 workers, no source partitioning (OVERLORD-Vanilla actors),
then three ablations — batch size 512→2048, worker count 4→16, cluster
size 512→4096 nodes. The reported metric is the memory cost ratio
OVERLORD / Colocated (< 1 = OVERLORD cheaper).

Expected shape: marginal overhead (ratio ~>= 1) at CP=PP=1 from the
Data Constructor's buffering; strong savings as CP·PP grows; larger
batches raise the ratio (constructor buffers scale with batch bytes);
more workers lower it (per-worker state replication grows on the
colocated side); larger clusters at low parallelism raise it (bigger
effective DP → more constructors), while high-parallelism cells stay
cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.data.sources import navit_100
from repro.sim.memsim import ClusterConfig, memory_ratio

#: Fig. 14 baseline configuration
BASE_NODES = 512
BASE_WORKERS = 4
BASE_BATCH = 512  # samples per DP group (weak scaling: global grows with DP)
TP = 8
SAMPLE_BYTES = 500_000.0  # ~0.5 MB raw payload per sample


@dataclass(frozen=True)
class E3Cell:
    cp: int
    pp: int
    n_nodes: int
    workers: int
    group_batch: int
    ratio: float


def run_cell(
    *,
    cp: int,
    pp: int,
    n_nodes: int = BASE_NODES,
    workers: int = BASE_WORKERS,
    group_batch: int = BASE_BATCH,
) -> E3Cell:
    cluster = ClusterConfig(n_nodes=n_nodes, tp=TP, pp=pp, cp=cp)
    batch_bytes = group_batch * SAMPLE_BYTES
    ratio = memory_ratio(
        navit_100(),
        cluster,
        workers=workers,
        batch_bytes_per_group=batch_bytes,
    )
    return E3Cell(cp, pp, n_nodes, workers, group_batch, ratio)


def run_grid(
    *,
    cps: tuple[int, ...] = (1, 2, 4, 8),
    pps: tuple[int, ...] = (1, 2, 4, 8),
    **kwargs,
) -> list[E3Cell]:
    """The Fig. 14 CP x PP ratio grid."""
    return [run_cell(cp=cp, pp=pp, **kwargs) for cp in cps for pp in pps]


def run_ablations() -> dict[str, list[E3Cell]]:
    """Fig. 17's three ablations at representative parallelism corners."""
    corners = [(1, 1), (2, 2), (4, 4)]
    out: dict[str, list[E3Cell]] = {"batch": [], "workers": [], "cluster": []}
    for cp, pp in corners:
        for bs in (512, 2048):
            out["batch"].append(run_cell(cp=cp, pp=pp, group_batch=bs))
        for w in (4, 16):
            out["workers"].append(run_cell(cp=cp, pp=pp, workers=w))
        for n in (512, 4096):
            out["cluster"].append(run_cell(cp=cp, pp=pp, n_nodes=n))
    return out
