"""ClientPlaceTree — hierarchical model of the trainer device mesh (§4.1).

The tree orders parallelism dimensions (default PP → DP → CP → TP, the
4D layout in Fig. 8); each leaf is a trainer-side client identified by a
global rank and a coordinate along every dimension. The tree answers the
three questions the data plane needs:

- ``buckets(axis, group_size)`` — how many independent data consumers
  exist along an axis, and which bucket each client belongs to
  (``distribute`` primitive).
- ``consumers(...)`` — which clients must actually *fetch* a bucket's
  data, after parallelism transformations (PP stage > 0 receives
  metadata only; CP ranks receive sequence shards) and ``broadcast_at``
  exclusions (e.g. TP0 broadcasts to its TP group, so tp > 0 clients
  skip fetching).
- ``selective_broadcast_groups(dim)`` — the bottom-up selective
  broadcasting deployment trick (§6.2): clients grouped by the subtree
  at ``dim`` whose head performs the broadcast.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

DIMS_DEFAULT = ("PP", "DP", "CP", "TP")
AXIS_WORLD = "WORLD"


@dataclass(frozen=True)
class Client:
    """One trainer-side client (one GPU rank) with mesh coordinates."""

    rank: int
    coords: dict[str, int]

    def coord(self, dim: str) -> int:
        return self.coords[dim]


class ClientPlaceTree:
    """Logical tree over the device mesh.

    ``dims`` maps dimension name to degree, e.g. ``{"PP": 4, "DP": 2,
    "CP": 2, "TP": 2}``; ``order`` is the root-to-leaf nesting. World
    size is the product of all degrees.
    """

    def __init__(self, dims: dict[str, int], order: Sequence[str] = DIMS_DEFAULT):
        for d in order:
            if d not in dims:
                raise KeyError(f"dimension {d!r} missing a degree")
            if dims[d] <= 0:
                raise ValueError(f"dimension {d!r} must have positive degree")
        if set(dims) != set(order):
            raise ValueError("dims and order must name the same dimensions")
        self.order: tuple[str, ...] = tuple(order)
        self.dims = {d: int(dims[d]) for d in self.order}
        self.world_size = 1
        for d in self.order:
            self.world_size *= self.dims[d]
        self._clients = self._enumerate()
        # (axis, group_size) -> bucket -> its clients in rank order
        self._by_bucket: dict[tuple[str, int | None], dict[int, list[Client]]] = {}

    @classmethod
    def from_degrees(
        cls, pp: int = 1, dp: int = 1, cp: int = 1, tp: int = 1
    ) -> "ClientPlaceTree":
        return cls({"PP": pp, "DP": dp, "CP": cp, "TP": tp})

    def _enumerate(self) -> list[Client]:
        clients = []
        for rank in range(self.world_size):
            coords, rem = {}, rank
            for d in reversed(self.order):  # leaf dim varies fastest
                coords[d] = rem % self.dims[d]
                rem //= self.dims[d]
            clients.append(Client(rank=rank, coords=coords))
        return clients

    @property
    def clients(self) -> list[Client]:
        return list(self._clients)

    # -- distribute --------------------------------------------------------

    def n_buckets(self, axis: str, group_size: int | None = None) -> int:
        """Bucket count for ``distribute(axis, group_size)``.

        ``axis='DP'`` → one bucket per DP group (minibatch partitioning);
        ``axis='CP'`` → DPxCP uniform consumers (hybrid data parallelism);
        ``axis='WORLD'`` → every client its own bucket (encoder-style
        world-wide data parallelism). ``group_size`` coalesces adjacent
        buckets to ceil(n / group_size) to cut coordination overhead.
        """
        n = self._axis_cardinality(axis)
        if group_size is not None:
            if group_size <= 0:
                raise ValueError("group_size must be positive")
            n = -(-n // group_size)
        return n

    def _axis_cardinality(self, axis: str) -> int:
        if axis == AXIS_WORLD:
            return self.world_size
        if axis not in self.order:
            raise KeyError(f"unknown axis {axis!r}")
        # cardinality = product of degrees from root down to `axis`,
        # excluding any pipeline dimension (every PP stage of a DP group
        # consumes the same batch) — matches the paper's DP / CP bucketing.
        n = 1
        for d in self.order:
            if d == "PP":
                pass
            else:
                n *= self.dims[d]
            if d == axis:
                break
        return n

    def bucket_of(self, client: Client, axis: str, group_size: int | None = None) -> int:
        """The bucket index a client consumes under ``distribute(axis)``."""
        if axis == AXIS_WORLD:
            raw = client.rank
        else:
            if axis not in self.order:
                raise KeyError(f"unknown axis {axis!r}")
            raw, seen = 0, False
            for d in self.order:
                if d == "PP":
                    continue
                raw = raw * self.dims[d] + client.coords[d]
                if d == axis:
                    seen = True
                    break
            assert seen or axis == "PP", axis
            if axis == "PP":
                raw = 0
        if group_size is not None:
            raw //= group_size
        return raw

    def bucket_assignment(self, axis: str, group_size: int | None = None) -> dict[int, int]:
        """rank → bucket for every client."""
        return {c.rank: self.bucket_of(c, axis, group_size) for c in self._clients}

    def _bucket_clients(
        self, axis: str, group_size: int | None
    ) -> dict[int, list[Client]]:
        """bucket → its clients in rank order, grouped once per
        ``(axis, group_size)``."""
        key = (axis, group_size)
        if key not in self._by_bucket:
            groups: dict[int, list[Client]] = {}
            for c in self._clients:
                groups.setdefault(self.bucket_of(c, axis, group_size), []).append(c)
            self._by_bucket[key] = groups
        return self._by_bucket[key]

    # -- consumers / broadcast ---------------------------------------------

    def consumers(
        self,
        bucket: int,
        axis: str,
        *,
        group_size: int | None = None,
        broadcast_dims: Sequence[str] = (),
        metadata_only_pp: bool = True,
    ) -> dict[int, str]:
        """rank → payload kind ('full' | 'shard' | 'metadata') for one bucket.

        - Clients whose bucket matches participate; with ``axis='DP'`` and
          CP in the mesh, CP ranks receive disjoint sequence *shards*.
        - ``broadcast_dims`` excludes clients with coord > 0 along those
          dimensions (they receive via trainer-side broadcast instead).
        - Pipeline stages > 0 receive 'metadata' only (shapes for P2P),
          unless ``metadata_only_pp`` is disabled.
        """
        out: dict[int, str] = {}
        for c in self._bucket_clients(axis, group_size).get(bucket, ()):
            if any(c.coords.get(d, 0) > 0 for d in broadcast_dims):
                continue
            if metadata_only_pp and c.coords.get("PP", 0) > 0:
                out[c.rank] = "metadata"
            elif axis == "DP" and self.dims.get("CP", 1) > 1 and "CP" not in broadcast_dims:
                out[c.rank] = "shard"
            else:
                out[c.rank] = "full"
        return out

    def selective_broadcast_groups(self, dim: str) -> list[list[int]]:
        """Groups of ranks sharing the subtree rooted at ``dim``: the head
        (first rank) fetches and broadcasts to the rest (§6.2). Returns a
        list of rank lists, one per group."""
        if dim not in self.order:
            raise KeyError(f"unknown dim {dim!r}")
        groups: dict[tuple[int, ...], list[int]] = {}
        above = self.order[: self.order.index(dim)]
        for c in self._clients:
            key = tuple(c.coords[d] for d in above)
            groups.setdefault(key, []).append(c.rank)
        return [sorted(v) for _, v in sorted(groups.items())]

    def dp_group_clients(self, dp: int) -> list[Client]:
        """All clients in one DP group (a Data Constructor's clientele)."""
        return [c for c in self._clients if c.coords.get("DP", 0) == dp]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{d}={self.dims[d]}" for d in self.order)
        return f"ClientPlaceTree({inner}, world={self.world_size})"
