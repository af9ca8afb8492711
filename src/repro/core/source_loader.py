"""Source Loader — the per-source ingestion actor (§3).

Each Source Loader is dedicated to one data source (optionally one
*shard* of a source under Source Parallelism) and owns that source's
file access state: a positional cursor over the source's Parquet
dataset, a bounded read buffer of sample metadata, and the source's
transformation pipeline. Dedicating loaders to sources is what removes
the per-(worker, source) file-state replication of colocated loaders.
Buffered and staged rows are typed numpy columns (``ROW_DTYPES``); rows
leave as frames only through ``summary_buffer()`` and ``pop_staged()``.

The data path is Spark: ``fill()`` reads the next cursor range from the
source's Parquet file via a predicate-pushdown range scan. When the
loader was built without an on-disk source (pure-synthetic runs), rows
are regenerated bit-identically from the counter-based generator
instead — both paths produce the same rows, a property the tests
assert. Replay after a failure (:meth:`SourceLoader.resume`) is a
``fill()`` too: a Parquet-backed loader re-scans its Parquet file and a
synthetic one regenerates the rows.

Worker parallelism is modelled explicitly: ``workers`` amortises the
per-sample transformation latency (Worker Parallel in Fig. 10), and the
loader accounts its own memory as base worker contexts + file state +
buffered bytes, the (P, T, M) cost tuple of §5.1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.data.sources import ROW_DTYPES, SourceSpec, rows_frame, source_columns

#: resident memory of one worker process context (interpreter + transform
#: libraries + prefetch slot), GB — Fig. 4's "worker scaling" dimension
WORKER_BASE_GB = 0.35


def shard_state_gb(file_state_gb: float, n_shards: int) -> float:
    """File access state of one of ``n_shards`` Source-Parallel shards:
    ~1/n of the source's row-group/footer state plus a fixed connection
    floor."""
    return file_state_gb / n_shards + 0.005


def actor_memory_gb(workers: int, state_gb: float) -> float:
    """Loader actor memory without buffered samples: worker contexts plus
    file access state held once per actor.

    Unlike a colocated PyTorch loader — whose ``num_workers`` *reader*
    processes each open every source — an OVERLORD Source Loader actor
    holds its (sharded) file access state exactly once; its workers only
    transform staged samples (§5.1 Worker Parallel staggers
    transformation, not reading)."""
    return workers * WORKER_BASE_GB + state_gb


#: the buffer metadata the Planner plans over, besides the source name
SUMMARY_COLS = ("source_id", "row_idx", "text_len", "image_patches")


def _empty() -> dict[str, np.ndarray]:
    return {c: np.empty(0, dtype=t) for c, t in ROW_DTYPES.items()}


@dataclass
class LoaderState:
    """Checkpointable state: cursor + staged/prepared progress. The read
    buffer's columns are *not* checkpointed (they are large); recovery
    re-reads them from ``prepared_upto``, the first undelivered row."""

    cursor: int = 0
    prepared_upto: int = 0


class SourceLoader:
    """One source-loader actor.

    Parameters
    ----------
    spec : the source description (cost/memory characteristics).
    path : Parquet dataset path; ``None`` → generate rows directly.
    shard, n_shards : Source-Parallel shard of the source this actor
        serves (rows with ``row_idx % n_shards == shard``).
    workers : worker-parallel degree inside this actor.
    buffer_capacity : max buffered samples (read buffer).
    """

    def __init__(
        self,
        spec: SourceSpec,
        *,
        spark: SparkSession | None = None,
        path: str | None = None,
        shard: int = 0,
        n_shards: int = 1,
        workers: int = 1,
        buffer_capacity: int = 4096,
        seed: int = 0,
    ):
        if not (0 <= shard < n_shards):
            raise ValueError("shard must lie in [0, n_shards)")
        if workers <= 0 or buffer_capacity <= 0:
            raise ValueError("workers and buffer_capacity must be positive")
        if path is not None and spark is None:
            raise ValueError("reading a Parquet source requires a SparkSession")
        self.spec = spec
        self.spark = spark
        self.path = path
        self.shard = shard
        self.n_shards = n_shards
        self.workers = workers
        self.buffer_capacity = buffer_capacity
        self.seed = seed
        self.state = LoaderState()
        self._buffer = _empty()
        self._staged: list[dict[str, np.ndarray]] = []
        self.failed = False

    # -- ingestion -----------------------------------------------------------

    def _read_range(self, start: int, count: int) -> dict[str, np.ndarray]:
        """Rows [start, start+count) of *this shard's* row stream."""
        # shard-local position i maps to global row_idx = i * n_shards + shard
        lo = start * self.n_shards + self.shard
        hi = (start + count) * self.n_shards + self.shard
        if self.path is None:
            idx = np.arange(lo, hi, self.n_shards, dtype=np.int64)
            return source_columns(self.spec, idx, seed=self.seed)
        row = F.col("row_idx")
        pdf = (
            self.spark.read.parquet(self.path)
            .filter((row >= lo) & (row < hi) & (row % self.n_shards == self.shard))
            .orderBy("row_idx")
            .toPandas()
        )
        return {c: pdf[c].to_numpy(dtype=t) for c, t in ROW_DTYPES.items()}

    def fill(self, n: int) -> int:
        """Read up to ``n`` new samples into the buffer (bounded by
        capacity); returns the number actually read. Workflow step 6."""
        if self.failed:
            raise RuntimeError(f"loader for {self.spec.name} has failed")
        n = min(n, self.buffer_capacity - self.n_buffered)
        if n <= 0:
            return 0
        new = self._read_range(self.state.cursor, n)
        got = len(new["row_idx"])  # fewer than n past a Parquet source's end
        self.state.cursor += got
        self._buffer = {c: np.concatenate((v, new[c])) for c, v in self._buffer.items()}
        return got

    # -- planner interface ---------------------------------------------------

    @property
    def n_buffered(self) -> int:
        """Samples in the read buffer."""
        return len(self._buffer["row_idx"])

    @property
    def buffer(self) -> dict[str, np.ndarray]:
        """The read buffer's typed columns, oldest row first; read only."""
        return self._buffer

    def summary_buffer(self) -> pd.DataFrame:
        """Lightweight buffer metadata for the Planner: sample indices,
        source signature, token lengths. No payloads cross this path."""
        return rows_frame(self.spec.name, {c: self._buffer[c].copy() for c in SUMMARY_COLS})

    def prepare(self, row_idxs: list[int]) -> float:
        """Execute a loading plan: pop the named samples from the read
        buffer, apply the sample transformation, and stage them for the
        Data Constructor. Returns the (simulated) transformation
        latency, amortised across this actor's workers. Plans consume
        the buffer as a prefix, so ``prepared_upto`` marks the first
        undelivered row (:meth:`resume`): a plan that skips rows at the
        buffer's head raises ``ValueError``, one naming rows not in the
        buffer ``KeyError``."""
        if self.failed:
            raise RuntimeError(f"loader for {self.spec.name} has failed")
        wanted = np.sort(np.asarray(row_idxs, dtype=np.int64))
        have = self._buffer["row_idx"]
        if not np.array_equal(have[: len(wanted)], wanted):
            missing = np.setdiff1d(wanted, have)
            if len(missing):
                raise KeyError(
                    f"{self.spec.name}: plan requests rows not in buffer: "
                    f"{missing[:5].tolist()}..."
                )
            raise ValueError(f"{self.spec.name}: plan skips rows at the buffer's head")
        k = len(wanted)
        self._staged.append({c: v[:k] for c, v in self._buffer.items()})
        self._buffer = {c: v[k:] for c, v in self._buffer.items()}
        if k:
            self.state.prepared_upto = int(wanted[-1]) + 1
        return self.transform_latency(k)

    def pop_staged(self) -> pd.DataFrame:
        """Constructor-side fetch of everything staged so far, as one
        frame with the columns of ``sources.generate_source_rows``."""
        staged, self._staged = self._staged or [_empty()], []
        cols = {c: np.concatenate([s[c] for s in staged]) for c in ROW_DTYPES}
        return rows_frame(self.spec.name, cols)

    # -- cost accounting -----------------------------------------------------

    def transform_latency(self, n_samples: int) -> float:
        """Seconds to transform ``n_samples``: per-sample cost amortised
        over worker-parallel workers (Fig. 10 Worker Parallel)."""
        return n_samples * self.spec.transform_cost_s / self.workers

    def memory_gb(self) -> float:
        """Resident memory: worker contexts + this shard's file access
        state + buffered sample bytes."""
        file_state = shard_state_gb(self.spec.file_state_gb, self.n_shards)
        buffered = float(self._buffer["sample_bytes"].sum()) / 1e9
        return actor_memory_gb(self.workers, file_state) + buffered

    # -- fault tolerance -----------------------------------------------------

    def checkpoint(self) -> dict:
        return {
            "source": self.spec.name,
            "shard": self.shard,
            "cursor": self.state.cursor,
            "prepared_upto": self.state.prepared_upto,
        }

    def restore(self, ckpt: dict) -> None:
        if ckpt["source"] != self.spec.name or ckpt["shard"] != self.shard:
            raise ValueError("checkpoint does not belong to this loader shard")
        self.state = LoaderState(
            cursor=ckpt["cursor"], prepared_upto=ckpt["prepared_upto"]
        )
        self._buffer = _empty()
        self._staged = []
        self.failed = False

    def resume(self, read_upto: int) -> int:
        """Restart at the first undelivered row — the one restart rule of
        both §6.1 recovery paths. The cursor moves to the shard-local
        position of row ``prepared_upto`` and the rows up to
        ``read_upto``, where the failed loader had read, are re-read.
        Returns the number of rows re-read."""
        # shard rows below prepared_upto: ceil((prepared_upto - shard) / n)
        n = self.n_shards
        self.state.cursor = (self.state.prepared_upto - self.shard + n - 1) // n
        return self.fill(read_upto - self.state.cursor)

    def fail(self) -> None:
        """Inject a failure (for fault-tolerance experiments)."""
        self.failed = True
        self._buffer = _empty()
        self._staged = []
