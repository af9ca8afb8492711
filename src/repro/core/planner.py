"""Planner — centralized control plane (§3 workflow, §5.2 triggers).

The Planner owns the data mixture schedule and drives the lazy per-step
workflow: it collects lightweight buffer metadata from every Source
Loader (``summary_buffer``), synthesises a loading plan (mix → cost →
balance over the metadata — the exact per-step planning code the Spark
data plane runs, shared via :class:`repro.core.dgraph._StepPlanner`),
directs loaders to prepare and stage the planned samples
(``loader_do_plan``), and hands the staged batch to Data Constructors
(``constructor_do_plan``). It also tracks moving-average sampling
weights and exposes scale-up/down triggers for the AutoScaler, and
checkpoints its own state for non-interrupted recovery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd

from repro.core.constructor import DataConstructor
from repro.core.dgraph import LoadingPlan, _StepPlanner, sample_id
from repro.core.placetree import ClientPlaceTree
from repro.core.source_loader import SourceLoader
from repro.data.mixture import MixSchedule, MovingAverageTracker


@dataclass(frozen=True)
class StepPlan:
    """One step's finalized plan: per-sample routing plus bookkeeping."""

    step: int
    assignments: pd.DataFrame  # sample rows + cost/bucket/mb columns
    per_loader_rows: dict[tuple[str, int], list[int]]  # (source, shard) -> row_idx

    @property
    def n_samples(self) -> int:
        return len(self.assignments)


class Planner:
    """Central planner over a set of Source Loaders.

    Parameters mirror the orchestration strategy: distribution axis
    (via ``tree`` + ``axis``), microbatch count, cost function and
    balancing method (``method=None`` → vanilla round-robin).
    """

    def __init__(
        self,
        loaders: Sequence[SourceLoader],
        tree: ClientPlaceTree,
        schedule: MixSchedule,
        *,
        batch_size: int,
        n_microbatches: int = 1,
        axis: str = "DP",
        cost_fn: Callable[[pd.DataFrame], np.ndarray] | None = None,
        method: str | None = "karmarkar_karp",
        ma_window: int = 8,
        hi_threshold: float = 0.5,
        lo_threshold: float = 0.02,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.loaders = list(loaders)
        self.tree = tree
        self.schedule = schedule
        self.batch_size = batch_size
        self.n_microbatches = n_microbatches
        self.axis = axis
        self.cost_fn = cost_fn
        self.method = method
        self.n_buckets = tree.n_buckets(axis)
        self.hi = hi_threshold
        self.lo = lo_threshold
        self.tracker = MovingAverageTracker(schedule.n_sources, window=ma_window)
        self.step = 0

    # -- low-level interfaces (§4.2 "low-level programming interfaces") -------

    def summary_buffer(self) -> pd.DataFrame:
        """Aggregate buffer metadata across loaders (workflow step 4)."""
        frames = [
            ld.summary_buffer().assign(_shard=ld.shard)
            for ld in self.loaders
            if not ld.failed
        ]
        out = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()
        if len(out):
            out["sample_id"] = sample_id(
                out["source_id"].astype("int64"), out["row_idx"].astype("int64")
            )
            out["step"] = self.step
        return out

    def plan_raw(self, summary: pd.DataFrame) -> pd.DataFrame:
        """Run the shared per-step planning function over a metadata
        summary — identical code to the Spark ``applyInPandas`` path."""
        planner = _StepPlanner(
            schedule=self.schedule,
            batch_size=self.batch_size,
            cost_fn=self.cost_fn,
            method=self.method,
            intra_reorder=True,
            n_buckets=self.n_buckets,
            n_bins=self.n_microbatches,
        )
        if summary.empty:
            raise RuntimeError("no buffered samples to plan over")
        return planner(summary)

    def loader_do_plan(self, plan: StepPlan) -> float:
        """Direct each loader to prepare and stage its planned rows;
        returns the slowest loader's transformation latency (the step's
        preparation critical path)."""
        latency = 0.0
        by_key = {(ld.spec.name, ld.shard): ld for ld in self.loaders}
        for key, rows in plan.per_loader_rows.items():
            latency = max(latency, by_key[key].prepare(rows))
        return latency

    def constructor_do_plan(
        self, plan: StepPlan, loading_plan: LoadingPlan, context_length: int
    ) -> dict[int, DataConstructor]:
        """Instantiate one Data Constructor per bucket over the staged
        samples (the staged frame is the plan's assignment table)."""
        return {
            b: DataConstructor(b, loading_plan, context_length)
            for b in range(self.n_buckets)
        }

    # -- per-step workflow ------------------------------------------------------

    def ensure_buffered(self, min_per_source: int) -> None:
        """Top up every loader's buffer to at least ``min_per_source``."""
        for ld in self.loaders:
            if ld.failed:
                continue
            deficit = min_per_source - len(ld.summary_buffer())
            if deficit > 0:
                ld.fill(deficit)

    def plan_step(self) -> StepPlan:
        """Produce and execute one step's loading plan (workflow 3-5)."""
        summary = self.summary_buffer()
        assigned = self.plan_raw(summary)
        shard_of = {}
        if len(summary):
            shard_of = dict(
                zip(
                    zip(summary["source"], summary["row_idx"]),
                    summary["_shard"],
                )
            )
        per_loader: dict[tuple[str, int], list[int]] = {}
        for src, row in zip(assigned["source"], assigned["row_idx"]):
            key = (src, int(shard_of[(src, row)]))
            per_loader.setdefault(key, []).append(int(row))
        plan = StepPlan(
            step=self.step, assignments=assigned, per_loader_rows=per_loader
        )
        self.loader_do_plan(plan)
        self.tracker.observe(self.schedule.weights(self.step), self.hi, self.lo)
        self.step += 1
        return plan

    # -- autoscaling triggers (§5.2) ---------------------------------------------

    def scale_triggers(self, patience: int = 3) -> dict[int, int]:
        """source_id → +1 (scale up) / -1 (scale down) for sources whose
        moving-average weight crossed a threshold for ``patience``
        consecutive intervals."""
        up = self.tracker.consecutive_above() >= patience
        down = self.tracker.consecutive_below() >= patience
        out: dict[int, int] = {}
        for sid in range(self.schedule.n_sources):
            if up[sid]:
                out[sid] = 1
            elif down[sid]:
                out[sid] = -1
        return out

    # -- fault tolerance -----------------------------------------------------------

    def checkpoint(self) -> dict:
        return {
            "step": self.step,
            "batch_size": self.batch_size,
            "n_microbatches": self.n_microbatches,
            "axis": self.axis,
        }

    def restore(self, ckpt: dict) -> None:
        self.step = int(ckpt["step"])
        self.batch_size = int(ckpt["batch_size"])
        self.n_microbatches = int(ckpt["n_microbatches"])
        self.axis = ckpt["axis"]
