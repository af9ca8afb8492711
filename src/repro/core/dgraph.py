"""DGraph — stateful, source-aware dataflow graph over sample metadata
(§4.1) plus the declarative orchestration primitives (§4.2).

A DGraph wraps a Spark DataFrame of *lightweight sample metadata* (one
row per buffered sample: ``sample_id``, ``source_id``, ``row_idx``,
``step``, modality fields such as ``text_len`` / ``image_patches``).
Primitives are recorded declaratively and executed lazily by
:meth:`DGraph.plan`, which runs the per-step planning function —
mix → cost → balance — distributed via ``groupBy("step").applyInPandas``
so independent training steps plan in parallel across executors.

Lineage: every primitive appends a (from_state, op, to_state) edge, the
graph's "orchestration transparency" property; ``lineage_edges()``
exposes it. ``select_modality`` creates a second graph over the same
shared data dict with different metadata (the VLM image-graph pattern
in Fig. 9).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.balance import balance_two_level
from repro.core.placetree import ClientPlaceTree
from repro.data.mixture import MixSchedule

#: columns every buffer DataFrame must carry
BUFFER_KEY_COLS = ("sample_id", "source_id", "row_idx", "step")

#: the columns a plan appends to each sample row
PLAN_FIELDS = (
    T.StructField("cost", T.DoubleType(), False),
    T.StructField("bucket", T.IntegerType(), False),
    T.StructField("mb", T.IntegerType(), False),
)

CostFn = Callable[[pd.DataFrame], np.ndarray]


def sample_id(source_id, row_idx):
    """The globally unique id of row ``row_idx`` of source ``source_id``:
    ``source_id * 2**40 + row_idx``. Takes Spark columns or pandas/numpy
    integers; callers pass 64-bit operands."""
    return source_id * (1 << 40) + row_idx


def with_sample_id(df: DataFrame) -> DataFrame:
    """Derive a globally unique ``sample_id`` from (source_id, row_idx)."""
    from pyspark.sql import functions as F

    return df.withColumn(
        "sample_id", sample_id(F.col("source_id").cast("long"), F.col("row_idx"))
    )


@dataclass(frozen=True)
class LoadingPlan:
    """Result of ``plan()``: sample → (bucket, microbatch) assignments
    plus everything Data Constructors need to resolve consumers."""

    assignments: DataFrame
    tree: ClientPlaceTree
    axis: str
    group_size: int | None
    n_buckets: int
    n_microbatches: int
    broadcast_dims: tuple[str, ...]
    lineage: tuple[tuple[str, str, str], ...]

    def consumers(self, bucket: int) -> dict[int, str]:
        """rank → payload kind for one bucket (parallelism transform)."""
        return self.tree.consumers(
            bucket,
            self.axis,
            group_size=self.group_size,
            broadcast_dims=self.broadcast_dims,
        )

    def to_pandas(self) -> pd.DataFrame:
        return self.assignments.toPandas()


@dataclass(frozen=True)
class DGraph:
    """Immutable builder: each primitive returns a new DGraph with one
    more lineage edge; ``plan()`` executes the pipeline."""

    df: DataFrame
    fields: tuple[str, ...]
    state: str = "buffered"
    lineage: tuple[tuple[str, str, str], ...] = ()
    _schedule: MixSchedule | None = None
    _batch_size: int | None = None
    _tree: ClientPlaceTree | None = None
    _axis: str | None = None
    _group_size: int | None = None
    _n_microbatches: int = 1
    _cost_fn: CostFn | None = None
    _balance_method: str | None = None
    _intra_reorder: bool = True
    _broadcast_dims: tuple[str, ...] = ()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_buffer(cls, buffer_df: DataFrame, fields: Sequence[str]) -> "DGraph":
        """Bind buffered sample metadata to a new graph. ``fields`` are
        the modality metadata columns this graph reasons about."""
        missing = [c for c in (*BUFFER_KEY_COLS, *fields) if c not in buffer_df.columns]
        if missing:
            raise ValueError(f"buffer is missing columns {missing}")
        return cls(df=buffer_df, fields=tuple(fields))

    def select_modality(self, fields: Sequence[str]) -> "DGraph":
        """A sibling graph over the same shared data dict with different
        metadata — e.g. an image graph next to a text graph."""
        g = DGraph.from_buffer(self.df, fields)
        return replace(g, lineage=self._edge(g, "select_modality"))

    # -- primitives ----------------------------------------------------------

    def mix(self, schedule: MixSchedule, batch_size: int) -> "DGraph":
        """Scheduled source sampling: each step admits ``batch_size``
        samples apportioned across sources by the schedule's weights."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        g = replace(self, _schedule=schedule, _batch_size=batch_size, state="sampled")
        return replace(g, lineage=self._edge(g, f"mix[{type(schedule).__name__}]"))

    def distribute(
        self,
        axis: str,
        tree: ClientPlaceTree,
        *,
        group_size: int | None = None,
        n_microbatches: int = 1,
    ) -> "DGraph":
        """Choose the distribution axis; bucket count comes from the
        ClientPlaceTree (DP groups, DPxCP consumers, or WORLD)."""
        tree.n_buckets(axis, group_size)  # validates axis/group_size
        if n_microbatches <= 0:
            raise ValueError("n_microbatches must be positive")
        g = replace(
            self,
            _tree=tree,
            _axis=axis,
            _group_size=group_size,
            _n_microbatches=n_microbatches,
            state="distributed",
        )
        op = f"distribute[{axis} x{tree.n_buckets(axis, group_size)}]"
        return replace(g, lineage=self._edge(g, op))

    def cost(self, costfn: CostFn) -> "DGraph":
        """Register the metadata → cost estimator propagated to balance."""
        g = replace(self, _cost_fn=costfn, state="costed")
        return replace(g, lineage=self._edge(g, "cost"))

    def balance(
        self, method: str = "karmarkar_karp", *, intra_reorder: bool = True
    ) -> "DGraph":
        """Balance samples by cost across buckets and microbatch bins.
        ``intra_reorder=False`` keeps arrival order within a bucket so
        the global batch content is unchanged (paper's config knob)."""
        g = replace(
            self,
            _balance_method=method,
            _intra_reorder=intra_reorder,
            state="balanced",
        )
        return replace(g, lineage=self._edge(g, f"balance[{method}]"))

    def broadcast_at(self, dim: str) -> "DGraph":
        """Declare a trainer-side broadcast along ``dim`` so the Data
        Constructor excludes coord>0 clients from fetching."""
        g = replace(self, _broadcast_dims=(*self._broadcast_dims, dim))
        return replace(g, lineage=self._edge(g, f"broadcast_at[{dim}]"))

    def _edge(self, new: "DGraph", op: str):
        return (*self.lineage, (self.state, op, new.state))

    def lineage_edges(self) -> list[tuple[str, str, str]]:
        return list(self.lineage)

    # -- execution -----------------------------------------------------------

    def step_planner(self) -> "_StepPlanner":
        """The per-step planning function this graph's primitives declare."""
        if self._tree is None or self._axis is None:
            raise RuntimeError("call distribute() before plan()")
        return _StepPlanner(
            schedule=self._schedule,
            batch_size=self._batch_size,
            cost_fn=self._cost_fn,
            method=self._balance_method,
            intra_reorder=self._intra_reorder,
            n_buckets=self._tree.n_buckets(self._axis, self._group_size),
            n_bins=self._n_microbatches,
        )

    def plan(self) -> LoadingPlan:
        """Execute mix → cost → balance per step, distributed over steps."""
        planner = self.step_planner()
        keep = [*BUFFER_KEY_COLS, *self.fields]
        schema = T.StructType([self.df.schema[c] for c in keep] + list(PLAN_FIELDS))
        def run_step(pdf: pd.DataFrame) -> pd.DataFrame:
            return planner(pdf)

        assignments = (
            self.df.select(*keep).groupBy("step").applyInPandas(run_step, schema=schema)
        )
        g = replace(self, state="planned")
        return LoadingPlan(
            assignments=assignments,
            tree=self._tree,
            axis=self._axis,
            group_size=self._group_size,
            n_buckets=planner.n_buckets,
            n_microbatches=planner.n_bins,
            broadcast_dims=self._broadcast_dims,
            lineage=self._edge(g, "plan"),
        )


@dataclass
class _StepPlanner:
    """Picklable per-step planning closure executed inside applyInPandas.

    Also callable directly on a pandas buffer (the Planner's in-process
    ``plan_raw`` path) — both paths share this exact code.
    """

    schedule: MixSchedule | None
    batch_size: int | None
    cost_fn: CostFn | None
    method: str | None
    intra_reorder: bool
    n_buckets: int
    n_bins: int

    def __call__(self, *args) -> pd.DataFrame:
        # applyInPandas may invoke with (key, pdf); direct callers pass (pdf,)
        pdf: pd.DataFrame = args[-1]
        pdf = pdf.sort_values(["source_id", "row_idx"], kind="stable").reset_index(
            drop=True
        )
        step = int(pdf["step"].iloc[0]) if len(pdf) else 0

        if self.schedule is not None and self.batch_size is not None:
            counts = self.schedule.sample_counts(step, self.batch_size)
            parts = []
            for sid, grp in pdf.groupby("source_id", sort=True):
                want = int(counts[int(sid)]) if int(sid) < len(counts) else 0
                if want > 0:
                    parts.append(grp.iloc[:want])
            pdf = (
                pd.concat(parts, ignore_index=True)
                if parts
                else pdf.iloc[0:0].reset_index(drop=True)
            )

        # arrival order: a deterministic per-step shuffle. Unscheduled
        # loaders sample their quota independently per rank, so slot
        # composition is multinomial — a shuffle followed by round-robin
        # chunking reproduces that; sorting by row_idx would interleave
        # sources perfectly and flatter the Vanilla baseline.
        if len(pdf):
            g = np.random.default_rng(1_000_003 * step + 7)
            pdf = pdf.iloc[g.permutation(len(pdf))].reset_index(drop=True)

        cost = (
            np.asarray(self.cost_fn(pdf), dtype=np.float64)
            if self.cost_fn is not None
            else np.ones(len(pdf))
        )
        if cost.shape != (len(pdf),):
            raise ValueError("cost function must return one cost per sample")

        if self.method is not None and len(pdf):
            bucket, mb = balance_two_level(
                cost,
                self.n_buckets,
                self.n_bins,
                method=self.method,
                intra_reorder=self.intra_reorder,
            )
        else:
            idx = np.arange(len(pdf))
            bucket = idx % self.n_buckets
            mb = (idx // self.n_buckets) % self.n_bins

        out = pdf.copy()
        out["cost"] = cost
        out["bucket"] = bucket.astype(np.int32)
        out["mb"] = mb.astype(np.int32)
        return out
