"""Planner — centralized control plane (§3 workflow, §5.2 triggers).

The Planner owns the data mixture schedule and drives the lazy per-step
workflow: it collects lightweight buffer metadata from every Source
Loader (``summary_buffer``), synthesises a loading plan by calling its
one :class:`repro.core.dgraph.DGraph` declaration (mix → distribute →
cost → balance) on that metadata — the same step function the Spark
data plane runs in ``DGraph.plan`` — directs loaders to prepare and
stage the planned samples (``loader_do_plan``), and hands the staged
batch to Data Constructors (``constructor_do_plan``). It also tracks moving-average sampling
weights and exposes scale-up/down triggers for the AutoScaler, and
checkpoints its own state for non-interrupted recovery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import pandas as pd

from repro.core.constructor import DataConstructor
from repro.core.dgraph import DGraph, LoadingPlan, sample_id
from repro.core.placetree import ClientPlaceTree
from repro.core.source_loader import SUMMARY_COLS, SourceLoader
from repro.data.mixture import MixSchedule, MovingAverageTracker
from repro.data.sources import ROW_DTYPES, rows_frame


@dataclass(frozen=True)
class StepPlan:
    """One step's finalized plan: per-sample routing plus bookkeeping."""

    step: int
    assignments: pd.DataFrame  # sample rows + cost/bucket/mb columns
    per_loader_rows: dict[tuple[str, int], list[int]]  # (source, shard) -> row_idx

    @property
    def n_samples(self) -> int:
        return len(self.assignments)


def _rows_by_loader(assigned: pd.DataFrame) -> dict[tuple[str, int], list[int]]:
    """(source, shard) → its assigned ``row_idx`` in assignment order,
    keys in order of first appearance."""
    source = assigned["source"].to_numpy()
    shard = assigned["_shard"].to_numpy(np.int64)
    source_code = pd.factorize(source)[0]
    group = pd.factorize(source_code * (shard.max(initial=0) + 1) + shard)[0]
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    firsts = order[ends - counts]
    rows = np.split(assigned["row_idx"].to_numpy()[order], ends[:-1])
    return {
        (source[i], int(shard[i])): r.tolist() for i, r in zip(firsts.tolist(), rows)
    }


class Planner:
    """Central planner over a set of Source Loaders.

    Parameters mirror the orchestration strategy: distribution axis
    (via ``tree`` + ``axis``), microbatch count, cost function and
    balancing method (``method=None`` → vanilla round-robin). They are
    declared once, as ``self.graph``.
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
        graph = (
            DGraph(("text_len", "image_patches"))
            .mix(schedule, batch_size)
            .distribute(axis, tree, n_microbatches=n_microbatches)
        )
        if cost_fn is not None:
            graph = graph.cost(cost_fn)
        if method is not None:
            graph = graph.balance(method)
        self.graph = graph
        self.loaders = list(loaders)
        self.schedule = schedule
        self.hi = hi_threshold
        self.lo = lo_threshold
        self.tracker = MovingAverageTracker(schedule.n_sources, window=ma_window)
        self.step = 0

    # -- low-level interfaces (§4.2 "low-level programming interfaces") -------

    def summary_buffer(self) -> pd.DataFrame:
        """Aggregate buffer metadata across live loaders (workflow step
        4): one frame over their concatenated buffer columns, each row
        tagged with its loader's shard, its ``sample_id`` and the step."""
        live = [ld for ld in self.loaders if not ld.failed]
        sizes = [ld.n_buffered for ld in live]
        cols = {
            c: np.concatenate([np.empty(0, ROW_DTYPES[c]), *(ld.buffer[c] for ld in live)])
            for c in SUMMARY_COLS
        }
        cols["_shard"] = np.repeat(np.array([ld.shard for ld in live], np.int64), sizes)
        cols["sample_id"] = sample_id(cols["source_id"].astype(np.int64), cols["row_idx"])
        cols["step"] = np.full(sum(sizes), self.step, dtype=np.int64)
        names = np.array([ld.spec.name for ld in live], dtype=object)
        # copy() consolidates the columns into one block per dtype: the
        # mix's take and every constructor's take and slices run per block
        return rows_frame(np.repeat(names, sizes), cols).copy()

    def plan_raw(self, summary: pd.DataFrame) -> pd.DataFrame:
        """Run the graph's per-step planning function over a metadata
        summary — identical code to the Spark ``applyInPandas`` path."""
        if summary.empty:
            raise RuntimeError("no buffered samples to plan over")
        return self.graph(summary)

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
        """Instantiate one Data Constructor per bucket of ``loading_plan``
        (the staged frame is the plan's assignment table). ``plan`` is
        not used; the constructors read only ``loading_plan``."""
        return {
            b: DataConstructor(b, loading_plan, context_length)
            for b in range(self.graph.n_buckets)
        }

    # -- per-step workflow ------------------------------------------------------

    def ensure_buffered(self, min_per_source: int) -> None:
        """Top up every loader's buffer to at least ``min_per_source``."""
        for ld in self.loaders:
            if ld.failed:
                continue
            deficit = min_per_source - ld.n_buffered
            if deficit > 0:
                ld.fill(deficit)

    def plan_step(self) -> StepPlan:
        """Produce and execute one step's loading plan (workflow 3-5)."""
        assigned = self.plan_raw(self.summary_buffer())
        plan = StepPlan(
            step=self.step,
            assignments=assigned,
            per_loader_rows=_rows_by_loader(assigned),
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
        """Everything future plans depend on that is not configuration:
        the next step to plan, the moving-average tracker and the
        schedule's own state (a loss-adaptive EMA)."""
        return {
            "step": self.step,
            "tracker": self.tracker.checkpoint(),
            "schedule": self.schedule.checkpoint(),
        }

    def restore(self, ckpt: dict) -> None:
        self.step = int(ckpt["step"])
        self.tracker.restore(ckpt["tracker"])
        self.schedule.restore(ckpt["schedule"])
