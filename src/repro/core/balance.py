"""Load-balancing and packing algorithms (``balance`` primitive, §4.2).

Pure NumPy implementations shared by the Spark data plane
(:mod:`repro.core.primitives`) and the simulators:

- :func:`greedy_binpack` — longest-processing-time-first greedy number
  partitioning ("greedybinpacking" in the paper).
- :func:`karmarkar_karp` — k-way Karmarkar–Karp largest-differencing
  partitioning [8].
- :func:`pack_sequences` — first-fit-decreasing packing of variable-
  length subsequences into fixed-capacity training sequences with
  segment boundaries (microbatch "Packing" transform, §2.1).
- :func:`balance_two_level` — inter-microbatch balancing: items →
  buckets (DP ranks) → bins (microbatches), optionally preserving
  arrival order inside a bucket (intra-microbatch reordering disabled).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter

import numpy as np


def _validate(costs: np.ndarray, n_bins: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ValueError("costs must be 1-D")
    if n_bins <= 0:
        raise ValueError("n_bins must be positive")
    if not (np.isfinite(costs) & (costs >= 0)).all():
        raise ValueError("costs must be finite and non-negative")
    return costs


def greedy_binpack(costs: np.ndarray, n_bins: int) -> np.ndarray:
    """LPT greedy: sort items by descending cost, always assign to the
    currently lightest bin. Returns the bin index per item (original
    order). O(n log n); 4/3-approximate for makespan."""
    costs = _validate(costs, n_bins)
    assign = np.empty(len(costs), dtype=np.int64)
    if len(costs) == 0:
        return assign
    order = np.argsort(-costs, kind="stable")
    heap = [(0.0, b) for b in range(n_bins)]
    heapq.heapify(heap)
    for i in order:
        load, b = heapq.heappop(heap)
        assign[i] = b
        heapq.heappush(heap, (load + costs[i], b))
    return assign


_LOAD = itemgetter(0)


def karmarkar_karp(costs: np.ndarray, n_bins: int) -> np.ndarray:
    """k-way Karmarkar–Karp largest differencing method (Karmarkar & Karp,
    "The differencing method of set partitioning", 1982).

    Each heap entry is a k-way partial partition: k ``(load, slot)``
    pairs sorted heaviest first. Repeatedly merge the two entries with
    the largest spread (heaviest minus lightest load), pairing the
    heaviest slot of one with the lightest of the other (ties broken by
    heap insertion order, and the merged pairs sorted stably by load).
    Returns bin index per item. Typically much tighter than LPT on
    heavy-tailed inputs.

    An entry is sparse: it stores only its explicit prefix, and every
    later position is implicitly ``(0.0, empty)``. A single item is a
    one-pair entry, so most early merges join two entries whose
    prefixes fit in k together. Such a merge pairs no two non-empty
    slots, and when the prefixes exactly fill k, or when both last
    explicit loads are > 0 (no explicit zero can tie with the implicit
    padding), it is the concatenation of one prefix with the other's
    reverse, sorted stably — a merge of two sorted runs. Every other
    merge pads both entries to k, joins slots pairwise, sorts, and
    trims trailing empty slots. Both give the dense algorithm's order.

    A merge joins two slots in O(1): a slot node is an item, a join of
    two non-empty slots, or empty (-1), so the nodes form a forest with
    at most ``n - 1`` joins. One top-down pass over the joins, from the
    final entry's slots, labels every item with its bin. O(n k log k
    + n log n) in the worst case; a sparse merge costs O(p log p) in
    its p explicit pairs.
    """
    costs = _validate(costs, n_bins)
    n = len(costs)
    assign = np.empty(n, dtype=np.int64)
    if n == 0:
        return assign
    if n_bins == 1:
        assign[:] = 0
        return assign

    k = n_bins
    pad = [(0.0, -1)] * k
    # node i < n is item i; node n + t joins left[t] and right[t]
    left: list[int] = []
    right: list[int] = []
    # entry: (-spread, tiebreak, explicit (load, slot) prefix, heaviest first)
    heap = [(-c, i, [(c, i)]) for i, c in enumerate(costs.tolist())]
    heapq.heapify(heap)

    tiebreak = n
    while len(heap) > 1:
        e1 = heapq.heappop(heap)[2]
        e2 = heapq.heappop(heap)[2]
        p = len(e1) + len(e2)
        if p == k or (p < k and e1[-1][0] > 0.0 and e2[-1][0] > 0.0):
            e = e1 + e2[::-1]
            e.sort(key=_LOAD, reverse=True)
        else:
            # pair heaviest of one with lightest of the other
            e = []
            for (la, a), (lb, b) in zip(
                e1 + pad[len(e1):], reversed(e2 + pad[len(e2):])
            ):
                if b < 0:
                    e.append((la + lb, a))
                elif a < 0:
                    e.append((la + lb, b))
                else:
                    e.append((la + lb, n + len(left)))
                    left.append(a)
                    right.append(b)
            e.sort(key=_LOAD, reverse=True)
            while e[-1][1] < 0:
                e.pop()
        lightest = e[-1][0] if len(e) == k else 0.0
        heapq.heappush(heap, (lightest - e[0][0], tiebreak, e))
        tiebreak += 1

    label = [0] * (n + len(left))
    for b, (_, node) in enumerate(heap[0][2]):
        if node >= 0:
            label[node] = b
    for t in range(len(left) - 1, -1, -1):
        label[left[t]] = label[right[t]] = label[n + t]
    assign[:] = label[:n]
    return assign


_METHODS = {
    "greedy": greedy_binpack,
    "greedybinpacking": greedy_binpack,
    "karmarkar_karp": karmarkar_karp,
    "karmarkar-karp": karmarkar_karp,
}


def balance_method(name: str):
    """Resolve a balancing method by its paper name."""
    try:
        return _METHODS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown balance method {name!r}; known: {sorted(_METHODS)}"
        ) from None


def bin_loads(costs: np.ndarray, assign: np.ndarray, n_bins: int) -> np.ndarray:
    """Total cost per bin for an assignment."""
    return np.bincount(assign, weights=np.asarray(costs, dtype=np.float64), minlength=n_bins)


def imbalance(costs: np.ndarray, assign: np.ndarray, n_bins: int) -> float:
    """max/mean load ratio — 1.0 is perfectly balanced."""
    loads = bin_loads(costs, assign, n_bins)
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0


# ---------------------------------------------------------------------------
# Sequence packing (microbatch transformation).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedSequence:
    """One training sequence assembled from subsequences: ``items`` are
    input indices, ``lengths`` their token counts, ``capacity`` the
    context length. Attention with segment masks costs sum(l_i^2), not
    (sum l_i)^2 — the quantity :func:`attention_cost` reports."""

    items: tuple[int, ...]
    lengths: tuple[int, ...]
    capacity: int

    @property
    def used(self) -> int:
        return int(sum(self.lengths))

    @property
    def padding(self) -> int:
        return self.capacity - self.used

    def attention_cost(self) -> float:
        return float(sum(l * l for l in self.lengths))


def pack_sequences(lengths: np.ndarray, capacity: int) -> list[PackedSequence]:
    """First-fit-decreasing packing of subsequences into sequences of
    ``capacity`` tokens. Lengths above capacity are truncated to it (the
    framework's crop behaviour). Deterministic for a given input order."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    clipped = np.minimum(lengths, capacity)
    order = np.argsort(-clipped, kind="stable")
    bins: list[tuple[int, list[int]]] = []  # (remaining, item list)
    for i in order:
        l = int(clipped[i])
        placed = False
        for b, (rem, items) in enumerate(bins):
            if rem >= l:
                bins[b] = (rem - l, items + [int(i)])
                placed = True
                break
        if not placed:
            bins.append((capacity - l, [int(i)]))
    return [
        PackedSequence(
            items=tuple(items),
            lengths=tuple(int(clipped[i]) for i in items),
            capacity=capacity,
        )
        for _, items in bins
    ]


# ---------------------------------------------------------------------------
# Two-level (inter-microbatch) balancing.
# ---------------------------------------------------------------------------


def balance_two_level(
    costs: np.ndarray,
    n_buckets: int,
    n_bins: int,
    *,
    method: str = "karmarkar_karp",
    intra_reorder: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign items to (bucket, bin) = (DP rank, microbatch).

    Stage 1 balances items across buckets; stage 2 balances each
    bucket's items across its ``n_bins`` microbatches. With
    ``intra_reorder=False`` the per-bucket microbatch split preserves
    arrival order (round-robin chunks) so the global batch content per
    microbatch index is unchanged — the configuration knob the paper
    exposes for exact-reproducibility-sensitive runs.

    Returns (bucket_assignment, bin_assignment), both aligned to input
    order.
    """
    costs = _validate(costs, n_buckets * n_bins)
    fn = balance_method(method)
    bucket = fn(costs, n_buckets)
    bins = np.zeros(len(costs), dtype=np.int64)
    for b in range(n_buckets):
        idx = np.flatnonzero(bucket == b)
        if len(idx) == 0:
            continue
        if intra_reorder:
            bins[idx] = fn(costs[idx], n_bins)
        else:
            # contiguous arrival-order chunks of near-equal item count
            splits = np.array_split(np.arange(len(idx)), n_bins)
            for m, chunk in enumerate(splits):
                bins[idx[chunk]] = m
    return bucket, bins
