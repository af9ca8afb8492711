"""Data Constructor — per-DP-group batch assembly actor (§3).

One Data Constructor serves one bucket of the distribution axis
(typically one DP group). It aggregates staged samples from all Source
Loaders according to the loading plan, applies the microbatch
transformations (sequence packing with segment masks, padding), and the
parallelism transformations (context-parallel sequence sharding,
pipeline-stage metadata views, tensor-parallel broadcast exclusion).

Ranks inside the group share one constructed batch — the mechanism that
removes CP/PP/TP loader redundancy: CP ranks receive disjoint zig-zag
sequence shards of the *same* packed batch; PP>0 stages receive shape
metadata only; TP>0 ranks are excluded entirely when ``broadcast_at('TP')``
was declared.

Each constructor takes its bucket's rows out of the staged frame in one
``take``, ordered by microbatch. Every microbatch's ``sample_rows`` is a
zero-copy slice of that one frame (re-indexed from 0). Fused lengths and
payload sizes (``n_bytes``) are read from the staged frame's numpy
columns, so client payloads read no frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.balance import PackedSequence, pack_sequences
from repro.core.dgraph import LoadingPlan
from repro.data.sources import sample_payload_bytes


def zigzag_cp_shards(capacity: int, cp: int) -> list[list[tuple[int, int]]]:
    """Zig-zag context-parallel sharding: split a sequence of ``capacity``
    tokens into ``2*cp`` equal chunks and give CP rank r chunks r and
    (2*cp-1-r) — the standard trick that equalises causal-attention work
    across CP ranks. Returns per-rank lists of (start, end) token ranges."""
    if cp <= 0:
        raise ValueError("cp must be positive")
    if capacity % (2 * cp) != 0:
        raise ValueError(f"capacity {capacity} not divisible by 2*cp={2 * cp}")
    chunk = capacity // (2 * cp)
    shards = []
    for r in range(cp):
        a, b = r, 2 * cp - 1 - r
        shards.append([(a * chunk, (a + 1) * chunk), (b * chunk, (b + 1) * chunk)])
    return shards


def _row_bytes(rows: pd.DataFrame) -> np.ndarray:
    """Per-sample payload bytes; derived from metadata when the staged
    frame carries only plan columns."""
    if "sample_bytes" in rows.columns:
        return rows["sample_bytes"].to_numpy(dtype=np.int64)
    return sample_payload_bytes(
        rows["text_len"].to_numpy(), rows["image_patches"].to_numpy()
    )


@dataclass(frozen=True)
class Microbatch:
    """One assembled microbatch: packed sequences + padding accounting.

    ``sample_rows`` holds the samples that went in, in bucket order and
    indexed from 0; the constructor builds it as a slice of its bucket's
    frame, sharing that frame's data. ``n_bytes`` is their total payload
    size; the constructor sums it from a column of the staged frame, and
    when it is not given it is summed from ``sample_rows``."""

    index: int
    sequences: tuple[PackedSequence, ...]
    sample_rows: pd.DataFrame
    n_bytes: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_bytes is None:
            n = int(_row_bytes(self.sample_rows).sum()) if len(self.sample_rows) else 0
            object.__setattr__(self, "n_bytes", n)

    @property
    def n_sequences(self) -> int:
        return len(self.sequences)

    @property
    def total_tokens(self) -> int:
        return sum(s.used for s in self.sequences)

    @property
    def padded_tokens(self) -> int:
        return sum(s.padding for s in self.sequences)

    def attention_cost(self) -> float:
        return sum(s.attention_cost() for s in self.sequences)


@dataclass(frozen=True)
class ClientPayload:
    """What one trainer client receives for one microbatch."""

    rank: int
    kind: str  # 'full' | 'shard' | 'metadata'
    token_ranges: tuple[tuple[int, int], ...] | None  # CP shard ranges
    shapes: tuple[tuple[int, int], ...]  # (n_sequences, capacity) metadata
    bytes_transferred: int


class DataConstructor:
    """Constructor for one bucket of a LoadingPlan."""

    def __init__(self, bucket: int, plan: LoadingPlan, context_length: int):
        if context_length <= 0:
            raise ValueError("context_length must be positive")
        self.bucket = bucket
        self.plan = plan
        self.context_length = context_length
        self._consumers = plan.consumers(bucket)
        cp = plan.tree.dims.get("CP", 1)
        shards = [r for r, kind in self._consumers.items() if kind == "shard"]
        zigzag = zigzag_cp_shards(context_length, cp) if shards else []
        self._cp = cp
        self._cp_ranges = {
            r: tuple(zigzag[plan.tree.clients[r].coord("CP")]) for r in shards
        }

    # -- microbatch transformation --------------------------------------------

    def build_microbatches(self, staged: pd.DataFrame) -> list[Microbatch]:
        """Assemble this bucket's microbatches from staged samples.

        ``staged`` must carry plan columns (bucket, mb) plus metadata;
        rows for other buckets are ignored. Fused sequence length is
        text tokens + image tokens; sequences are packed FFD into
        context-length capacity with segment masks.
        """
        mbs = staged["mb"].to_numpy()
        sel = np.flatnonzero(staged["bucket"].to_numpy() == self.bucket)
        sel = sel[np.argsort(mbs[sel], kind="stable")]
        bounds = np.searchsorted(mbs[sel], np.arange(self.plan.n_microbatches + 1))
        fused = staged["text_len"].to_numpy()[sel] + staged["image_patches"].to_numpy()[sel]
        cum_bytes = np.concatenate(([0], np.cumsum(_row_bytes(staged)[sel]))).tolist()
        mine = staged.take(sel)
        out = []
        for mb, (s, e) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            rows = mine.iloc[s:e]
            rows.index = pd.RangeIndex(e - s)
            seqs = tuple(pack_sequences(fused[s:e], self.context_length))
            out.append(Microbatch(mb, seqs, rows, n_bytes=cum_bytes[e] - cum_bytes[s]))
        return out

    # -- parallelism transformation --------------------------------------------

    def client_payloads(self, mb: Microbatch) -> dict[int, ClientPayload]:
        """Per-client views of one microbatch after parallelism
        transforms. Only consumers returned by the plan fetch anything;
        broadcast-excluded ranks are absent (they receive trainer-side)."""
        shapes = ((len(mb.sequences), self.context_length),)
        payloads: dict[int, ClientPayload] = {}
        for rank, kind in self._consumers.items():
            if kind == "metadata":
                payloads[rank] = ClientPayload(
                    rank=rank,
                    kind="metadata",
                    token_ranges=None,
                    shapes=shapes,
                    bytes_transferred=64 * max(1, len(mb.sequences)),
                )
            elif kind == "shard":
                payloads[rank] = ClientPayload(
                    rank=rank,
                    kind="shard",
                    token_ranges=self._cp_ranges[rank],
                    shapes=shapes,
                    bytes_transferred=mb.n_bytes // self._cp,
                )
            else:
                payloads[rank] = ClientPayload(
                    rank=rank,
                    kind="full",
                    token_ranges=None,
                    shapes=shapes,
                    bytes_transferred=mb.n_bytes,
                )
        return payloads
