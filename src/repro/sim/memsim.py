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

The model is closed-form accounting: ``colocated_memory`` and
``overlord_memory`` return cluster-wide totals in GB, since E1 reports
average memory per node (total / nodes) and E3 the ratio of two totals. The per-actor and per-shard terms are
the ones the real :class:`~repro.core.source_loader.SourceLoader` and
the AutoScaler's memory fitting use.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def colocated_memory(
    specs: Sequence[SourceSpec],
    cluster: ClusterConfig,
    *,
    workers: int,
    batch_bytes_per_group: float,
) -> float:
    """Total memory (GB) of the colocated baseline: one loader instance
    per loader rank."""
    states = sum(s.file_state_gb for s in specs)
    return cluster.n_loader_ranks * colocated_instance_gb(
        workers, states, batch_bytes_per_group
    )


def overlord_memory(
    specs: Sequence[SourceSpec],
    cluster: ClusterConfig,
    *,
    batch_bytes_per_group: float,
    configs: Sequence[LoaderConfig] | None = None,
    vanilla_workers: int = 4,
    worker_process_states: bool = False,
) -> dict[str, float]:
    """Total memory (GB) of an OVERLORD deployment per component:
    'loader', 'constructor' and 'planner'.

    ``configs=None`` → Vanilla (one all-source actor per DP group with
    ``vanilla_workers`` workers); otherwise the AutoScaler's per-source
    actor configs.

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
        loaders = cluster.dp * actor_gb(vanilla_workers, states)
    else:
        state_of = {s.source_id: s.file_state_gb for s in specs}
        loaders = sum(
            cfg.n_actors
            * actor_gb(
                cfg.workers_per_actor,
                shard_state_gb(state_of[cfg.source_id], cfg.n_actors),
            )
            for cfg in configs
        )

    # one constructor per DP group: base + PREFETCH in-flight batch copies
    # + one staging copy for cross-node communication
    constructor = CONSTRUCTOR_BASE_GB + (PREFETCH + 1) * batch_bytes_per_group / 1e9
    return {
        "loader": loaders,
        "constructor": cluster.dp * constructor,
        "planner": PLANNER_GB,
    }


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
    return sum(over.values()) / colo
