"""E1 — data preprocessing architecture evaluation (§7.2, Fig. 12).

Llama-12B + ViT-2B on 288 GPUs (TP4 PP4) and 576 GPUs (TP4 PP4 CP4),
per-GPU batch 72, datasets navit-100 (colocated loader runs 4 workers)
and navit_data/306 (colocated fits only 1 worker per loader under the
1.8 TB/node limit). For each system we report:

- average memory per node (GB) from the memory cost model, and
- the per-iteration data-fetch time trace from the feed simulation
  (mean/std + a stability flag): the colocated loader at 576 GPUs
  fluctuates because its per-rank worker pool is under-provisioned, and
  OVERLORD-Vanilla's one-actor-per-DP-group pool cannot keep up at 576
  GPUs at all ("failed to continuously feed the data"), while
  OVERLORD-auto's per-source autoscaled pool stays stable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.autoscaler import ResourcePool, auto_partition, total_cpu_demand
from repro.data.sources import SourceSpec, generate_source_rows, navit_100, navit_lite
from repro.sim.memsim import ClusterConfig, colocated_memory, overlord_memory
from repro.sim.netsim import demand_per_iteration_s, feed_simulation

SAMPLES_PER_GPU = 72
ITER_BUDGET_S = 20.0  # training iteration length the fetch must hide under
SIDECAR_CPUS_PER_NODE = 64  # half of the host cores go to the sidecar pool
VANILLA_WORKERS = 16  # workers per all-source OVERLORD-Vanilla actor


@dataclass(frozen=True)
class E1Row:
    """One Fig. 12 bar: (system, gpus, dataset) → memory + fetch."""

    system: str
    n_gpus: int
    dataset: str
    mem_per_node_gb: float
    fetch_mean_s: float
    fetch_std_s: float
    feeds_ok: bool


def _avg_sample_bytes(specs: list[SourceSpec]) -> float:
    probe = np.concatenate(
        [generate_source_rows(s, 0, 64)["sample_bytes"].to_numpy() for s in specs[:32]]
    )
    return float(probe.mean())


def run_config(
    *,
    n_gpus: int,
    dataset: str,
    n_iters: int = 100,
    seed: int = 0,
) -> list[E1Row]:
    """All three systems for one (gpus, dataset) panel of Fig. 12."""
    if n_gpus == 288:
        cluster = ClusterConfig(n_nodes=18, tp=4, pp=4)
    elif n_gpus == 576:
        cluster = ClusterConfig(n_nodes=36, tp=4, pp=4, cp=4)
    else:
        raise ValueError("Fig. 12 evaluates 288 and 576 GPUs")
    if dataset == "navit-100":
        specs, colo_workers = navit_100(), 4
    elif dataset == "navit_data":
        specs, colo_workers = navit_lite(), 1
    else:
        raise ValueError("dataset must be navit-100 or navit_data")

    weights = np.array([s.weight for s in specs])
    group_gpus = cluster.world // cluster.dp
    group_batch = SAMPLES_PER_GPU * group_gpus
    batch_bytes = group_batch * _avg_sample_bytes(specs)
    global_samples_per_iter = SAMPLES_PER_GPU * cluster.world
    demand = demand_per_iteration_s(specs, weights, global_samples_per_iter)

    pool = ResourcePool(
        total_cpus=cluster.n_nodes * SIDECAR_CPUS_PER_NODE,
        per_actor_mem_gb=32.0,
    )
    auto_cfgs = auto_partition(specs, pool)

    def overlord_gb(**kwargs) -> float:
        over = overlord_memory(specs, cluster, batch_bytes_per_group=batch_bytes, **kwargs)
        return sum(over.values())

    # (system, total memory GB, feed workers, fetch demand s); the i-th
    # system's feed runs at seed + i
    systems = [
        # Colocated: one loader per (DP,CP,PP) rank, each with colo_workers
        # reader processes. Every CP rank of a group transforms the complete
        # group batch (Fig. 6's redundancy), so transform demand is
        # multiplied by the CP degree — the mechanism behind the 576-GPU
        # fetch fluctuations.
        ("colocated",
         colocated_memory(specs, cluster, workers=colo_workers, batch_bytes_per_group=batch_bytes),
         cluster.n_loader_ranks * colo_workers, demand * cluster.cp),
        # OVERLORD-Vanilla: one all-source actor per DP group. Its worker
        # pool scales with DP, so at 576 GPUs (DP shrinks from 18 to 9 while
        # data volume doubles) it cannot keep up — the paper's "failed to
        # continuously feed the data".
        ("overlord-vanilla", overlord_gb(vanilla_workers=VANILLA_WORKERS),
         cluster.dp * VANILLA_WORKERS, demand),
        # OVERLORD-auto: per-source autoscaled actors.
        ("overlord-auto", overlord_gb(configs=auto_cfgs), total_cpu_demand(auto_cfgs), demand),
    ]
    rows = []
    for i, (system, total_gb, n_workers, demand_s) in enumerate(systems, start=1):
        tr = feed_simulation(demand_s=demand_s, n_workers=max(1, n_workers),
                             iter_budget_s=ITER_BUDGET_S, n_iters=n_iters, seed=seed + i)
        mem = total_gb / cluster.n_nodes
        rows.append(E1Row(system, n_gpus, dataset, mem, tr.mean, tr.std, tr.stable))
    return rows


def run_all(**kwargs) -> list[E1Row]:
    rows = []
    for n_gpus in (288, 576):
        for dataset in ("navit-100", "navit_data"):
            rows.extend(run_config(n_gpus=n_gpus, dataset=dataset, **kwargs))
    return rows


def reduction_factors(rows: list[E1Row]) -> dict[tuple[int, str], float]:
    """(gpus, dataset) → colocated/best-OVERLORD memory ratio (the
    paper's headline is 'up to 13.5x')."""
    out = {}
    for n_gpus in sorted({r.n_gpus for r in rows}):
        for ds in sorted({r.dataset for r in rows}):
            sub = {r.system: r for r in rows if r.n_gpus == n_gpus and r.dataset == ds}
            if "colocated" in sub:
                best = min(
                    v.mem_per_node_gb
                    for k, v in sub.items()
                    if k != "colocated"
                )
                out[(n_gpus, ds)] = sub["colocated"].mem_per_node_gb / best
    return out
