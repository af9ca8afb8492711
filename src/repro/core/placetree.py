"""ClientPlaceTree — hierarchical model of the trainer device mesh (§4.1).

The tree nests PP → DP → CP → TP (the 4D layout in Fig. 8); each leaf is
a trainer-side client with a global rank and a coordinate along every
dimension. Ranks count the dimensions mixed-radix, TP fastest, so one
rule answers the data plane: along an axis X, a bucket is a run of
``stride(X)`` consecutive ranks (the product of the degrees below X)
inside each PP-stage block of ``world / PP`` ranks, since every PP stage
of a DP group consumes the same batch. Along ``WORLD`` each rank is its
own bucket. From that rule come ``n_buckets`` and ``bucket_of`` (the
``distribute`` primitive); ``consumers``, the ranks that must *fetch* a
bucket after parallelism transforms (PP stage > 0 receives metadata
only, CP ranks sequence shards) and ``broadcast_at`` exclusions; and
``selective_broadcast_groups(dim)``, the contiguous rank blocks whose
head broadcasts to the rest (§6.2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

DIMS = ("PP", "DP", "CP", "TP")
AXIS_WORLD = "WORLD"


@dataclass(frozen=True)
class Client:
    """One trainer-side client (one GPU rank) with mesh coordinates."""

    rank: int
    coords: dict[str, int]

    def coord(self, dim: str) -> int:
        return self.coords[dim]


def _group(group_size: int | None) -> int:
    if group_size is not None and group_size <= 0:
        raise ValueError("group_size must be positive")
    return group_size or 1


class ClientPlaceTree:
    """Logical tree over the device mesh.

    ``dims`` maps each of ``DIMS`` to its degree, e.g. ``{"PP": 4,
    "DP": 2, "CP": 2, "TP": 2}``. World size is the product of all
    degrees.
    """

    def __init__(self, dims: dict[str, int]):
        for d in DIMS:
            if d not in dims:
                raise KeyError(f"dimension {d!r} missing a degree")
            if dims[d] <= 0:
                raise ValueError(f"dimension {d!r} must have positive degree")
        if len(dims) != len(DIMS):
            raise ValueError(f"dims must name exactly {DIMS}")
        self.dims = {d: int(dims[d]) for d in DIMS}
        # stride(d): ranks per step of d's coordinate, the product of the
        # degrees below d (TP varies fastest)
        self._stride: dict[str, int] = {}
        self.world_size = 1
        for d in reversed(DIMS):
            self._stride[d] = self.world_size
            self.world_size *= self.dims[d]
        radix = [(d, self._stride[d], self.dims[d]) for d in reversed(DIMS)]
        self.clients: tuple[Client, ...] = tuple(
            Client(r, {d: r // s % n for d, s, n in radix}) for r in range(self.world_size)
        )

    @classmethod
    def from_degrees(
        cls, pp: int = 1, dp: int = 1, cp: int = 1, tp: int = 1
    ) -> "ClientPlaceTree":
        return cls({"PP": pp, "DP": dp, "CP": cp, "TP": tp})

    def _run(self, axis: str) -> tuple[int, int]:
        """(ranks per bucket, ranks after which the buckets repeat) along ``axis``."""
        if axis == AXIS_WORLD:
            return 1, self.world_size
        if axis not in self._stride:
            raise KeyError(f"unknown axis {axis!r}")
        return self._stride[axis], self._stride["PP"]

    # -- distribute --------------------------------------------------------

    def n_buckets(self, axis: str, group_size: int | None = None) -> int:
        """Bucket count for ``distribute(axis, group_size)``.

        ``axis='DP'`` → one bucket per DP group (minibatch partitioning);
        ``axis='CP'`` → DPxCP uniform consumers (hybrid data parallelism);
        ``axis='WORLD'`` → every client its own bucket (encoder-style
        world-wide data parallelism). ``group_size`` coalesces adjacent
        buckets to ceil(n / group_size) to cut coordination overhead.
        """
        stride, period = self._run(axis)
        return -(-(period // stride) // _group(group_size))

    def bucket_of(self, client: Client, axis: str, group_size: int | None = None) -> int:
        """The bucket index a client consumes under ``distribute(axis)``."""
        stride, period = self._run(axis)
        return client.rank % period // stride // _group(group_size)

    # -- consumers / broadcast ---------------------------------------------

    def consumers(
        self,
        bucket: int,
        axis: str,
        *,
        group_size: int | None = None,
        broadcast_dims: Sequence[str] = (),
    ) -> dict[int, str]:
        """rank → payload kind ('full' | 'shard' | 'metadata') for one
        bucket, in rank order.

        - The bucket's clients participate; with ``axis='DP'`` and CP in
          the mesh, CP ranks receive disjoint sequence *shards*.
        - ``broadcast_dims`` excludes clients with coord > 0 along those
          dimensions (they receive via trainer-side broadcast instead).
        - Pipeline stages > 0 (ranks from ``world / PP`` on) receive
          'metadata' only (shapes for P2P).
        """
        stride, period = self._run(axis)
        g = _group(group_size)
        lo = max(bucket * g, 0) * stride
        hi = min((bucket + 1) * g, period // stride) * stride
        ranks = [r for s in range(0, self.world_size, period) for r in range(s + lo, s + hi)]
        for d in broadcast_dims:
            if d in self._stride:  # only coord 0 along d fetches
                s, n = self._stride[d], self.dims[d]
                ranks = [r for r in ranks if r // s % n == 0]
        shard = axis == "DP" and self.dims["CP"] > 1 and "CP" not in broadcast_dims
        kind = "shard" if shard else "full"
        pp_block = self._stride["PP"]
        return {r: "metadata" if r >= pp_block else kind for r in ranks}

    def selective_broadcast_groups(self, dim: str) -> list[list[int]]:
        """Groups of ranks sharing the subtree rooted at ``dim``: the head
        (first rank) fetches and broadcasts to the rest (§6.2). Each
        group is a contiguous block of ``stride(dim) * degree(dim)``
        ranks."""
        if dim not in self._stride:
            raise KeyError(f"unknown dim {dim!r}")
        size = self._stride[dim] * self.dims[dim]
        return [list(range(s, s + size)) for s in range(0, self.world_size, size)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{d}={self.dims[d]}" for d in DIMS)
        return f"ClientPlaceTree({inner}, world={self.world_size})"
