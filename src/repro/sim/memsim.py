"""Memory cost model: colocated vs OVERLORD deployments (E1/E3).

The paper's memory claims rest on *where file access states and batch
buffers are replicated*:

- **Colocated** (Megatron-style): a loader instance exists on every
  (DP, CP, PP) rank — TP>0 ranks receive via broadcast, so TP carries
  no loader (Fig. 6 shows CP/PP redundancy). Every loader runs ``W``
  worker *processes*, and each worker process holds an independent file
  access state for **every** source (§2.3 Source Scaling), plus the
  instance prefetch-buffers its whole DP-group batch (parallelism
  redundancy: CP/PP ranks re-buffer the same batch).
- **OVERLORD-Vanilla**: actor-model preprocessing without source
  partitioning — one loader actor per DP group whose workers share the
  actor's file states (the actor holds all sources once), plus one Data
  Constructor per DP group and a Planner.
- **OVERLORD-auto**: per-source loader actors from the AutoScaler
  (§5.1); each actor holds only its own source's state, sharded across
  the source's actors.

The model is closed-form accounting over at most a few thousand actors,
so it is plain numpy/pandas: one row per loader instance or actor,
summed per node. The per-actor and per-shard terms are the ones the
real :class:`~repro.core.source_loader.SourceLoader` and the
AutoScaler's memory fitting use; tests diff the per-node sums against
DuckDB SQL over the same rows via the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.autoscaler import LoaderConfig
from repro.core.source_loader import WORKER_BASE_GB, actor_memory_gb, shard_state_gb
from repro.data.sources import SourceSpec

#: actor-process overhead (Ray actor + Python runtime), GB
ACTOR_BASE_GB = 0.6
#: Data Constructor actor base memory (assembly context), GB
CONSTRUCTOR_BASE_GB = 0.5
#: planner actor resident memory, GB
PLANNER_GB = 2.0
#: prefetch depth (in-flight batch copies) for loader/constructor buffers
PREFETCH = 2


@dataclass(frozen=True)
class ClusterConfig:
    """Trainer cluster geometry. ``dp`` is derived: world / (tp*pp*cp)."""

    n_nodes: int
    gpus_per_node: int = 16
    tp: int = 1
    pp: int = 1
    cp: int = 1

    @property
    def world(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def dp(self) -> int:
        denom = self.tp * self.pp * self.cp
        if self.world % denom != 0:
            raise ValueError(f"world {self.world} not divisible by tp*pp*cp={denom}")
        return self.world // denom

    @property
    def n_loader_ranks(self) -> int:
        """Ranks carrying a colocated loader instance: DP x CP x PP
        (TP rank 0 broadcasts within its TP group)."""
        return self.dp * self.cp * self.pp


def colocated_instance_gb(workers: int, states_gb: float, batch_bytes: float) -> float:
    """One colocated loader instance: every worker process holds all
    ``states_gb`` of file state, and the instance prefetches ``PREFETCH``
    copies of its ``batch_bytes`` group batch."""
    return workers * (WORKER_BASE_GB + states_gb) + PREFETCH * batch_bytes / 1e9


def _loader_ranks(cluster: ClusterConfig) -> pd.DataFrame:
    """One row per colocated loader instance, with its hosting node."""
    n = cluster.n_loader_ranks
    stride = cluster.world / n  # loader ranks spread uniformly over GPUs
    rank = np.arange(n, dtype=np.int64)
    gpu = (rank * stride).astype(np.int64)
    return pd.DataFrame({"loader_rank": rank, "node": gpu // cluster.gpus_per_node})


def colocated_memory(
    specs: Sequence[SourceSpec],
    cluster: ClusterConfig,
    *,
    workers: int,
    batch_bytes_per_group: float,
) -> pd.DataFrame:
    """Per-node memory (GB) of the colocated baseline: columns
    ``node, mem_gb``, one row per node hosting a loader instance."""
    states = sum(s.file_state_gb for s in specs)
    ranks = _loader_ranks(cluster).assign(
        mem_gb=colocated_instance_gb(workers, states, batch_bytes_per_group)
    )
    return ranks.groupby("node", as_index=False)["mem_gb"].sum()


def overlord_memory(
    specs: Sequence[SourceSpec],
    cluster: ClusterConfig,
    *,
    batch_bytes_per_group: float,
    configs: Sequence[LoaderConfig] | None = None,
    vanilla_workers: int = 4,
    worker_process_states: bool = False,
) -> pd.DataFrame:
    """Per-node, per-component memory (GB) of an OVERLORD deployment:
    columns ``node, component, mem_gb``.

    ``configs=None`` → Vanilla (one all-source actor per DP group with
    ``vanilla_workers`` workers); otherwise the AutoScaler's per-source
    actor configs. Components: 'loader', 'constructor', 'planner'.
    Actors round-robin over nodes (sidecar deployment, §6.2).

    ``worker_process_states=False`` (real OVERLORD) holds file states
    once per actor — its workers only transform. ``True`` replicates
    states per worker like a colocated PyTorch loader; Fig. 14's
    dry-run ablation uses this parity mode so the ratio isolates
    *parallelism* redundancy alone.
    """

    def actor_gb(workers: int, states_gb: float) -> float:
        if worker_process_states:
            return ACTOR_BASE_GB + colocated_instance_gb(workers, states_gb, 0.0)
        return ACTOR_BASE_GB + actor_memory_gb(workers, states_gb)

    if configs is None:
        states = sum(s.file_state_gb for s in specs)
        loaders = [actor_gb(vanilla_workers, states)] * cluster.dp
    else:
        state_of = {s.source_id: s.file_state_gb for s in specs}
        loaders = [
            actor_gb(
                cfg.workers_per_actor,
                shard_state_gb(state_of[cfg.source_id], cfg.n_actors),
            )
            for cfg in configs
            for _ in range(cfg.n_actors)
        ]

    # one constructor per DP group: base + PREFETCH in-flight batch copies
    # + one staging copy for cross-node communication
    constructor = CONSTRUCTOR_BASE_GB + (PREFETCH + 1) * batch_bytes_per_group / 1e9

    def placed(component: str, mem_gb: Sequence[float]) -> pd.DataFrame:
        node = np.arange(len(mem_gb)) % cluster.n_nodes
        return pd.DataFrame({"node": node, "component": component, "mem_gb": mem_gb})

    actors = pd.concat(
        [
            placed("loader", loaders),
            placed("constructor", [constructor] * cluster.dp),
            placed("planner", [PLANNER_GB]),
        ],
        ignore_index=True,
    )
    return actors.groupby(["node", "component"], as_index=False)["mem_gb"].sum()


def avg_mem_per_node(df: pd.DataFrame, n_nodes: int) -> float:
    """Cluster-wide average memory per node (empty nodes count)."""
    return float(df["mem_gb"].sum()) / n_nodes


def memory_ratio(
    specs: Sequence[SourceSpec],
    cluster: ClusterConfig,
    *,
    workers: int,
    batch_bytes_per_group: float,
) -> float:
    """Fig. 14's metric: OVERLORD-Vanilla total memory / Colocated total
    memory (< 1 means OVERLORD saves memory), in the dry-run parity mode
    (identical per-loader job memory on both sides, ``workers`` each) so
    the ratio isolates parallelism redundancy, as in the paper's
    ablation."""
    colo = colocated_memory(
        specs, cluster, workers=workers, batch_bytes_per_group=batch_bytes_per_group
    )
    over = overlord_memory(
        specs,
        cluster,
        batch_bytes_per_group=batch_bytes_per_group,
        vanilla_workers=workers,
        worker_process_states=True,
    )
    return avg_mem_per_node(over, cluster.n_nodes) / avg_mem_per_node(
        colo, cluster.n_nodes
    )
