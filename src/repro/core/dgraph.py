"""DGraph — stateful, source-aware dataflow graph over sample metadata
(§4.1) plus the declarative orchestration primitives (§4.2).

A DGraph is a declaration over *lightweight sample metadata* (one row
per buffered sample: ``sample_id``, ``source_id``, ``row_idx``,
``step``, modality fields such as ``text_len`` / ``image_patches``); it
holds no data. Primitives record what to do, and the graph itself is
the per-step planning function — mix → cost → balance over one step's
rows. Two executors run that one function: :meth:`DGraph.plan` binds a
Spark buffer and runs it via ``groupBy("step").applyInPandas``, so
independent training steps plan in parallel across executors, and the
in-process Planner calls the graph on each step's metadata summary.

Lineage: every primitive appends a (from_state, op, to_state) edge, the
graph's "orchestration transparency" property; ``lineage_edges()``
exposes it. ``select_modality`` creates a sibling graph that declares
different metadata fields over the same buffer rows (the VLM image-graph
pattern in Fig. 9).
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
    plus everything Data Constructors need to resolve consumers.
    ``assignments`` is a Spark frame from ``DGraph.plan`` and a pandas
    frame when the in-process loop builds the plan over one step's rows;
    ``to_pandas`` needs the Spark one."""

    assignments: DataFrame | pd.DataFrame
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
    """Immutable declaration over sample metadata: each primitive returns
    a new DGraph with one more lineage edge. The graph holds no data: it
    is the per-step planning function (``graph(pdf)``), and ``plan(df)``
    runs that function in Spark over a buffer."""

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

    def select_modality(self, fields: Sequence[str]) -> "DGraph":
        """A sibling graph over the same buffer rows with different
        metadata fields — e.g. an image graph next to a text graph."""
        g = DGraph(tuple(fields))
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

    @property
    def n_buckets(self) -> int:
        if self._tree is None or self._axis is None:
            raise RuntimeError("call distribute() before planning")
        return self._tree.n_buckets(self._axis, self._group_size)

    def bind(self, buffer_df: DataFrame) -> DataFrame:
        """The buffer's key and field columns — the rows this graph plans."""
        keep = [*BUFFER_KEY_COLS, *self.fields]
        missing = [c for c in keep if c not in buffer_df.columns]
        if missing:
            raise ValueError(f"buffer is missing columns {missing}")
        return buffer_df.select(*keep)

    def plan(self, buffer_df: DataFrame) -> LoadingPlan:
        """Execute mix → cost → balance per step over ``buffer_df``,
        distributed over steps."""
        rows = self.bind(buffer_df)
        schema = T.StructType(list(rows.schema) + list(PLAN_FIELDS))

        def run_step(pdf: pd.DataFrame) -> pd.DataFrame:
            return self(pdf)

        g = replace(self, state="planned")
        return LoadingPlan(
            assignments=rows.groupBy("step").applyInPandas(run_step, schema=schema),
            tree=self._tree,
            axis=self._axis,
            group_size=self._group_size,
            n_buckets=self.n_buckets,
            n_microbatches=self._n_microbatches,
            broadcast_dims=self._broadcast_dims,
            lineage=self._edge(g, "plan"),
        )

    def __call__(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Plan one step's buffered samples: the per-step function that
        ``plan`` runs inside ``applyInPandas`` and the in-process Planner
        runs on its metadata summary."""
        n_buckets = self.n_buckets
        sid = pdf["source_id"].to_numpy()
        # rows in (source_id, row_idx) order; lexsort is stable
        order = np.lexsort((pdf["row_idx"].to_numpy(), sid))
        step = int(pdf["step"].to_numpy()[order[0]]) if len(pdf) else 0

        if self._schedule is not None:
            # each source's quota is a prefix of its rows in that order
            counts = self._schedule.sample_counts(step, self._batch_size)
            ids, first, size = np.unique(sid[order], return_index=True, return_counts=True)
            # a source the schedule does not know gets no quota
            want = np.append(counts, 0)[np.minimum(ids, len(counts))]
            rank = np.arange(len(order)) - np.repeat(first, size)
            order = order[rank < np.repeat(want, size)]

        # arrival order: a deterministic per-step shuffle. Unscheduled
        # loaders sample their quota independently per rank, so slot
        # composition is multinomial — a shuffle followed by round-robin
        # chunking reproduces that; sorting by row_idx would interleave
        # sources perfectly and flatter the Vanilla baseline.
        g = np.random.default_rng(1_000_003 * step + 7)
        order = order[g.permutation(len(order))]
        out = pdf.take(order)
        out.index = pd.RangeIndex(len(out))

        cost = (
            np.asarray(self._cost_fn(out), dtype=np.float64)
            if self._cost_fn is not None
            else np.ones(len(out))
        )
        if cost.shape != (len(out),):
            raise ValueError("cost function must return one cost per sample")

        if self._balance_method is not None and len(out):
            bucket, mb = balance_two_level(
                cost,
                n_buckets,
                self._n_microbatches,
                method=self._balance_method,
                intra_reorder=self._intra_reorder,
            )
        else:
            idx = np.arange(len(out))
            bucket = idx % n_buckets
            mb = (idx // n_buckets) % self._n_microbatches

        out["cost"] = cost
        out["bucket"] = bucket.astype(np.int32)
        out["mb"] = mb.astype(np.int32)
        return out
