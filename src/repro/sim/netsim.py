"""Connectivity and data-feeding models (E1 fetch time, E6 scalability).

Two phenomena from the paper:

1. **Actor-model scalability (Appendix B, Fig. 18).** With direct
   loader→trainer transfer, every loader maintains a connection per
   trainer client; fetch latency degrades superlinearly with connection
   count (socket/coordination overhead) and the system collapses beyond
   a hard fan-out. Routing through per-DP-group Data Constructors caps
   each loader's fan-out at the constructor count.

2. **Per-iteration data-feed stability (Fig. 12).** A loader pool with
   aggregate transform capacity below the consumption rate accumulates
   backlog; the per-iteration fetch time then fluctuates and grows — a
   deterministic queueing recursion (Lindley) with heterogeneous
   per-iteration demand jitter drawn from the source latency skew.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.sources import SourceSpec

#: per-connection base latency (ms) and soft/hard fan-out limits
BASE_RTT_MS = 2.0
CONN_SOFT_CAP = 512.0
CONN_HARD_CAP = 3000.0


def fetch_latency_ms(connections_per_loader: float) -> float:
    """Per-fetch latency as a function of a loader's fan-out: base RTT
    amplified quadratically past the soft cap; ``inf`` past the hard
    cap (the Fig. 18 'collapse')."""
    if connections_per_loader <= 0:
        raise ValueError("connections must be positive")
    if connections_per_loader > CONN_HARD_CAP:
        return math.inf
    return BASE_RTT_MS * (1.0 + (connections_per_loader / CONN_SOFT_CAP) ** 2)


@dataclass(frozen=True)
class ScalabilityPoint:
    """One Fig. 18 configuration."""

    n_gpus: int
    direct_latency_ms: float
    constructor_latency_ms: float

    @property
    def slowdown(self) -> float:
        if math.isinf(self.direct_latency_ms):
            return math.inf
        return self.direct_latency_ms / self.constructor_latency_ms

    @property
    def direct_collapsed(self) -> bool:
        return math.isinf(self.direct_latency_ms)


def actor_model_scalability(
    gpu_counts: Sequence[int],
    *,
    tp: int = 4,
    pp: int = 4,
    cp: int = 1,
) -> list[ScalabilityPoint]:
    """Compare direct loader→trainer transfer with constructor-mediated
    transfer across cluster sizes (Appendix B)."""
    out = []
    for g in gpu_counts:
        clients = g  # every rank is a fetching client in the baseline
        n_constructors = max(1, g // (tp * pp * cp))
        direct = fetch_latency_ms(clients)
        # loader→constructor hop + constructor→group-clients hop
        via = fetch_latency_ms(n_constructors) + fetch_latency_ms(
            max(1, clients // n_constructors)
        )
        out.append(ScalabilityPoint(g, direct, via))
    return out


# ---------------------------------------------------------------------------
# Per-iteration feed simulation (Fig. 12's fetch-time traces).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeedTrace:
    """Per-iteration fetch times of one deployment."""

    fetch_s: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.fetch_s.mean())

    @property
    def std(self) -> float:
        return float(self.fetch_s.std())

    @property
    def stable(self) -> bool:
        """Feed is stable if the last-quarter mean hasn't drifted above
        2x the first-quarter mean (no backlog growth)."""
        q = max(1, len(self.fetch_s) // 4)
        return float(self.fetch_s[-q:].mean()) <= 2.0 * max(
            float(self.fetch_s[:q].mean()), 1e-9
        )


def demand_per_iteration_s(
    specs: Sequence[SourceSpec],
    weights: np.ndarray,
    samples_per_iter: int,
) -> float:
    """Aggregate single-worker transform work per iteration: samples
    apportioned by mixture weight times per-source transform cost."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    costs = np.array([s.transform_cost_s for s in specs])
    return float((w * costs).sum() * samples_per_iter)


def feed_simulation(
    *,
    demand_s: float,
    n_workers: int,
    iter_budget_s: float,
    n_iters: int = 100,
    transfer_s: float = 0.02,
    jitter_cv: float = 0.3,
    seed: int = 0,
) -> FeedTrace:
    """Lindley backlog recursion: each iteration deposits ``demand_s``
    (lognormal-jittered) single-worker-seconds of transform work, the
    pool serves ``n_workers * iter_budget_s`` per iteration overlapped
    with compute, and the visible fetch time is the unserved backlog
    plus the transfer hop."""
    if n_workers <= 0 or iter_budget_s <= 0:
        raise ValueError("n_workers and iter_budget_s must be positive")
    g = np.random.default_rng(seed)
    sigma = math.sqrt(math.log(1 + jitter_cv**2))
    backlog = 0.0
    fetch = np.empty(n_iters)
    for i in range(n_iters):
        arrival = demand_s * g.lognormal(mean=-0.5 * sigma**2, sigma=sigma)
        backlog = max(0.0, backlog + arrival - n_workers * iter_budget_s)
        fetch[i] = transfer_s + backlog / n_workers
    return FeedTrace(fetch)
