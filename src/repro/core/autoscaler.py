"""MultiSource Loader AutoScaling (§5).

Offline **Source Auto-Partitioning** (§5.1) turns heterogeneous
per-source transformation costs {P_k} and memory footprints {M_k} into
Source Loader configurations (actors x workers per source), in three
stages:

1. *Source clustering* — sort sources by descending transformation cost
   and chunk into clusters of ``cluster_size`` (4 by default, the
   paper's empirically optimal value).
2. *Resource level construction* — size each cluster's per-source
   worker count by the ratio of its mean cost to the cheapest cluster's,
   subtract Constructor/Planner reservations from total CPUs, scale to
   fit, and apply the ``w_src`` (per-source) and ``w_actor`` (per-actor)
   caps; actor count = loader data-parallel degree.
3. *Configuration generation* — emit per-source configs; when an
   actor's memory exceeds the per-actor budget, raise the actor count
   (Source Parallelism shards the file state) until it fits.

Online **Mixture-Driven Scaling** (§5.2) reacts to the Planner's
moving-average sampling weights: sustained high weight adds actors and
reshards; sustained low weight reclaims them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.source_loader import actor_memory_gb, shard_state_gb
from repro.data.sources import SourceSpec


@dataclass(frozen=True)
class LoaderConfig:
    """Deployment plan for one source: ``n_actors`` data-parallel loader
    actors, each with ``workers_per_actor`` worker-parallel workers."""

    source: str
    source_id: int
    n_actors: int
    workers_per_actor: int

    @property
    def total_workers(self) -> int:
        return self.n_actors * self.workers_per_actor


@dataclass(frozen=True)
class ResourcePool:
    """Resources available to the whole preprocessing service."""

    total_cpus: int
    per_actor_mem_gb: float
    constructor_cpus: int = 4
    planner_cpus: int = 2

    @property
    def available_cpus(self) -> int:
        return max(1, self.total_cpus - self.constructor_cpus - self.planner_cpus)


def cluster_sources(
    specs: Sequence[SourceSpec], cluster_size: int = 4
) -> list[list[SourceSpec]]:
    """Stage 1: descending-cost sort, fixed-size chunking."""
    if cluster_size <= 0:
        raise ValueError("cluster_size must be positive")
    ordered = sorted(specs, key=lambda s: -s.transform_cost_s)
    return [ordered[i : i + cluster_size] for i in range(0, len(ordered), cluster_size)]


def auto_partition(
    specs: Sequence[SourceSpec],
    pool: ResourcePool,
    *,
    cluster_size: int = 4,
    w_src: int = 16,
    w_actor: int = 4,
    max_actors_per_source: int = 8,
) -> list[LoaderConfig]:
    """Offline multi-level source partitioning (§5.1)."""
    if not specs:
        return []
    clusters = cluster_sources(specs, cluster_size)
    means = np.array([np.mean([s.transform_cost_s for s in c]) for c in clusters])
    base = means.min()

    # stage 2: raw worker demand per source ~ cost ratio to cheapest cluster
    raw: dict[int, int] = {}
    for c, mean in zip(clusters, means):
        demand = min(w_src, max(1, math.ceil(mean / base)))
        for s in c:
            raw[s.source_id] = demand

    # fit total workers into available CPUs (1 worker = 1 CPU block)
    total = sum(raw.values())
    scale = min(1.0, pool.available_cpus / total)
    configs: list[LoaderConfig] = []
    for spec in specs:
        workers_total = max(1, int(raw[spec.source_id] * scale))
        workers_total = min(workers_total, w_src)
        n_actors = max(1, math.ceil(workers_total / w_actor))
        per_actor = max(1, math.ceil(workers_total / n_actors))
        # stage 3: memory fitting — shard further until the actor fits
        while (
            actor_memory_gb(per_actor, shard_state_gb(spec.file_state_gb, n_actors))
            > pool.per_actor_mem_gb
            and n_actors < max_actors_per_source
        ):
            n_actors += 1
            per_actor = max(1, math.ceil(workers_total / n_actors))
        configs.append(
            LoaderConfig(
                source=spec.name,
                source_id=spec.source_id,
                n_actors=n_actors,
                workers_per_actor=per_actor,
            )
        )
    return configs


def total_cpu_demand(configs: Sequence[LoaderConfig]) -> int:
    return sum(c.total_workers for c in configs)


@dataclass(frozen=True)
class ScaleEvent:
    """One online scaling action for a source."""

    source_id: int
    delta_actors: int  # +n = create actors & reshard, -n = reclaim
    new_n_actors: int


class MixtureScaler:
    """Online mixture-driven scaling (§5.2): consumes the Planner's
    per-source triggers (+1/-1) and adjusts actor counts within
    [1, max_actors], emitting reshard events."""

    def __init__(
        self,
        configs: Sequence[LoaderConfig],
        *,
        max_actors: int = 8,
        step_actors: int = 1,
    ):
        self.configs: dict[int, LoaderConfig] = {c.source_id: c for c in configs}
        self.max_actors = max_actors
        self.step_actors = step_actors
        self.events: list[ScaleEvent] = []

    def apply_triggers(self, triggers: dict[int, int]) -> list[ScaleEvent]:
        """Apply Planner triggers; returns the scale events performed."""
        out: list[ScaleEvent] = []
        for sid, direction in triggers.items():
            cfg = self.configs.get(sid)
            if cfg is None:
                continue
            if direction > 0:
                new = min(self.max_actors, cfg.n_actors + self.step_actors)
            else:
                new = max(1, cfg.n_actors - self.step_actors)
            if new != cfg.n_actors:
                self.configs[sid] = LoaderConfig(
                    cfg.source, cfg.source_id, new, cfg.workers_per_actor
                )
                ev = ScaleEvent(sid, new - cfg.n_actors, new)
                out.append(ev)
                self.events.append(ev)
        return out

    def reshard_plan(self, event: ScaleEvent) -> list[tuple[int, int]]:
        """Resharding assignment after a scale event: (shard, n_shards)
        per actor — actor i serves rows with row_idx % n_shards == i.
        The assignment itself moves no data, but loader cursors are
        shard-local (``row_idx = pos * n_shards + shard``), so a new
        assignment is exactly-once only when applied at a point where
        every old shard has delivered the same prefix of the source
        (e.g. before the source's first read); a mid-stream reshard
        needs a handoff that this method does not make."""
        n = event.new_n_actors
        return [(i, n) for i in range(n)]
