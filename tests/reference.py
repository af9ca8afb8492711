"""Simple reference implementations that the tests compare the program's
faster versions against, result for result.

- :func:`karmarkar_karp` — k-way largest differencing that copies the
  item lists behind every slot on each merge.
- :func:`plan_step` — a DGraph's per-step planning function with the mix
  done on frames: sort, one group per source, concatenated prefixes, a
  shuffled ``iloc`` and a copy.
- :func:`build_microbatches` — a Data Constructor's microbatches, one
  boolean filter and one copied frame per microbatch.
- :func:`client_payloads` — a microbatch's client payloads, its bytes
  read from its sample rows and the zig-zag CP ranges cut per rank.
- :func:`n_buckets`, :func:`bucket_of`, :func:`consumers` and
  :func:`selective_broadcast_groups` — the device mesh's questions
  answered by walking each client's coordinates root to leaf, and
  consumers found by asking every client for its bucket.
"""
from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.balance import _validate, balance_two_level, pack_sequences
from repro.core.constructor import (
    ClientPayload,
    DataConstructor,
    Microbatch,
    _row_bytes,
    zigzag_cp_shards,
)
from repro.core.dgraph import DGraph
from repro.core.placetree import AXIS_WORLD, DIMS, Client, ClientPlaceTree


def karmarkar_karp(costs: np.ndarray, n_bins: int) -> np.ndarray:
    costs = _validate(costs, n_bins)
    n = len(costs)
    assign = np.empty(n, dtype=np.int64)
    if n == 0:
        return assign
    if n_bins == 1:
        assign[:] = 0
        return assign

    # entry: (-spread, tiebreak, loads desc, items-per-slot)
    heap: list[tuple[float, int, list[float], list[list[int]]]] = []
    for i in range(n):
        loads = [float(costs[i])] + [0.0] * (n_bins - 1)
        items: list[list[int]] = [[i]] + [[] for _ in range(n_bins - 1)]
        heap.append((-loads[0], i, loads, items))
    heapq.heapify(heap)

    tiebreak = n
    while len(heap) > 1:
        s1, _, l1, it1 = heapq.heappop(heap)
        s2, _, l2, it2 = heapq.heappop(heap)
        # pair heaviest of one with lightest of the other
        merged_loads = [l1[j] + l2[n_bins - 1 - j] for j in range(n_bins)]
        merged_items = [it1[j] + it2[n_bins - 1 - j] for j in range(n_bins)]
        order = sorted(range(n_bins), key=lambda j: -merged_loads[j])
        loads = [merged_loads[j] for j in order]
        items = [merged_items[j] for j in order]
        spread = loads[0] - loads[-1]
        heapq.heappush(heap, (-spread, tiebreak, loads, items))
        tiebreak += 1

    _, _, _, items = heap[0]
    for b, bucket in enumerate(items):
        for i in bucket:
            assign[i] = b
    return assign


def plan_step(graph: DGraph, pdf: pd.DataFrame) -> pd.DataFrame:
    n_buckets = graph.n_buckets
    pdf = pdf.sort_values(["source_id", "row_idx"], kind="stable").reset_index(
        drop=True
    )
    step = int(pdf["step"].iloc[0]) if len(pdf) else 0

    if graph._schedule is not None:
        counts = graph._schedule.sample_counts(step, graph._batch_size)
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

    if len(pdf):
        g = np.random.default_rng(1_000_003 * step + 7)
        pdf = pdf.iloc[g.permutation(len(pdf))].reset_index(drop=True)

    cost = (
        np.asarray(graph._cost_fn(pdf), dtype=np.float64)
        if graph._cost_fn is not None
        else np.ones(len(pdf))
    )
    if graph._balance_method is not None and len(pdf):
        bucket, mb = balance_two_level(
            cost,
            n_buckets,
            graph._n_microbatches,
            method=graph._balance_method,
            intra_reorder=graph._intra_reorder,
        )
    else:
        idx = np.arange(len(pdf))
        bucket = idx % n_buckets
        mb = (idx // n_buckets) % graph._n_microbatches

    out = pdf.copy()
    out["cost"] = cost
    out["bucket"] = bucket.astype(np.int32)
    out["mb"] = mb.astype(np.int32)
    return out


def build_microbatches(
    staged: pd.DataFrame, bucket: int, n_microbatches: int, context_length: int
) -> list[Microbatch]:
    mine = staged[staged["bucket"] == bucket]
    out = []
    for mb in range(n_microbatches):
        rows = mine[mine["mb"] == mb].reset_index(drop=True)
        fused = (
            rows["text_len"].to_numpy() + rows["image_patches"].to_numpy()
            if len(rows)
            else np.array([], dtype=np.int64)
        )
        seqs = tuple(pack_sequences(fused, context_length)) if len(rows) else ()
        n_bytes = int(_row_bytes(rows).sum()) if len(rows) else 0
        out.append(
            Microbatch(index=mb, sequences=seqs, sample_rows=rows, n_bytes=n_bytes)
        )
    return out


def client_payloads(dc: DataConstructor, mb: Microbatch) -> dict[int, ClientPayload]:
    cp = dc.plan.tree.dims.get("CP", 1)
    shapes = tuple((len(mb.sequences), dc.context_length) for _ in range(1))
    full_bytes = int(_row_bytes(mb.sample_rows).sum()) if len(mb.sample_rows) else 0
    payloads: dict[int, ClientPayload] = {}
    for rank, kind in dc.plan.consumers(dc.bucket).items():
        if kind == "metadata":
            payloads[rank] = ClientPayload(
                rank=rank,
                kind="metadata",
                token_ranges=None,
                shapes=shapes,
                bytes_transferred=64 * max(1, len(mb.sequences)),
            )
        elif kind == "shard":
            client = dc.plan.tree.clients[rank]
            ranges = tuple(zigzag_cp_shards(dc.context_length, cp)[client.coord("CP")])
            payloads[rank] = ClientPayload(
                rank=rank,
                kind="shard",
                token_ranges=ranges,
                shapes=shapes,
                bytes_transferred=full_bytes // cp,
            )
        else:
            payloads[rank] = ClientPayload(
                rank=rank,
                kind="full",
                token_ranges=None,
                shapes=shapes,
                bytes_transferred=full_bytes,
            )
    return payloads


def n_buckets(tree: ClientPlaceTree, axis: str, group_size: int | None = None) -> int:
    if axis == AXIS_WORLD:
        n = tree.world_size
    else:
        if axis not in DIMS:
            raise KeyError(axis)
        # the product of degrees from the root down to ``axis``, leaving
        # out PP: every PP stage of a DP group consumes the same batch
        n = 1
        for d in DIMS:
            if d != "PP":
                n *= tree.dims[d]
            if d == axis:
                break
    return n if group_size is None else -(-n // group_size)


def bucket_of(
    tree: ClientPlaceTree, client: Client, axis: str, group_size: int | None = None
) -> int:
    raw = 0  # every PP stage shares bucket 0 along PP
    if axis == AXIS_WORLD:
        raw = client.rank
    elif axis != "PP":
        for d in DIMS:
            if d == "PP":
                continue
            raw = raw * tree.dims[d] + client.coords[d]
            if d == axis:
                break
    return raw if group_size is None else raw // group_size


def consumers(
    tree: ClientPlaceTree,
    bucket: int,
    axis: str,
    *,
    group_size: int | None = None,
    broadcast_dims: Sequence[str] = (),
) -> dict[int, str]:
    out: dict[int, str] = {}
    for c in tree.clients:
        if bucket_of(tree, c, axis, group_size) != bucket:
            continue
        if any(c.coords.get(d, 0) > 0 for d in broadcast_dims):
            continue
        if c.coords["PP"] > 0:
            out[c.rank] = "metadata"
        elif axis == "DP" and tree.dims["CP"] > 1 and "CP" not in broadcast_dims:
            out[c.rank] = "shard"
        else:
            out[c.rank] = "full"
    return out


def selective_broadcast_groups(tree: ClientPlaceTree, dim: str) -> list[list[int]]:
    groups: dict[tuple[int, ...], list[int]] = {}
    above = DIMS[: DIMS.index(dim)]
    for c in tree.clients:
        groups.setdefault(tuple(c.coords[d] for d in above), []).append(c.rank)
    return [sorted(v) for _, v in sorted(groups.items())]
