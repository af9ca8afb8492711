"""Shadow loaders and differential checkpointing (§6.1, Fig. 11).

- :class:`CheckpointStore` — a versioned persistent store (dict-backed
  here; the paper uses a remote KV/object store). Writes carry an
  explicit latency so recovery experiments can account for them.
- :class:`DifferentialCheckpointer` — the Planner checkpoints every
  ``planner_interval`` steps while Source Loaders checkpoint every
  ``loader_interval`` (> planner's) because their large read buffers
  make journaling expensive; the gap is bridged at recovery time by
  *replay*: the loader re-reads rows from its checkpointed cursor, which
  is deterministic by construction of the data generator.
- :class:`ShadowLoader` — a hot-standby replica kept state-synchronised
  with its active loader every step; ``promote()`` swaps it in with
  zero replay, the spike-free recovery path of Fig. 16 (right).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.source_loader import SourceLoader


class CheckpointStore:
    """Key → latest state store with monotonically increasing versions
    per key; only the latest version is kept, since recovery reads
    nothing older. ``put`` returns the new version."""

    def __init__(self):
        self._data: dict[str, tuple[int, Any]] = {}

    def put(self, key: str, state: Any) -> int:
        version = self._data[key][0] + 1 if key in self._data else 1
        self._data[key] = (version, state)
        return version

    def latest(self, key: str) -> tuple[int, Any]:
        try:
            return self._data[key]
        except KeyError:
            raise KeyError(f"no checkpoint for {key!r}") from None

    def has(self, key: str) -> bool:
        return key in self._data


@dataclass
class DifferentialCheckpointer:
    """Adaptive-frequency persistence: planner state every
    ``planner_interval`` steps, each loader every ``loader_interval``
    steps (the paper sets the loader's *lower* to gain a store window)."""

    store: CheckpointStore
    planner_interval: int = 1
    loader_interval: int = 4

    def __post_init__(self):
        if self.loader_interval < self.planner_interval:
            raise ValueError(
                "loader_interval must be >= planner_interval (differential "
                "checkpointing journals loaders less often)"
            )

    def on_step(self, step: int, planner_state: dict, loaders: list[SourceLoader]) -> None:
        if step % self.planner_interval == 0:
            self.store.put("planner", dict(planner_state, step=step))
        if step % self.loader_interval == 0:
            for ld in loaders:
                self.store.put(f"loader/{ld.spec.name}/{ld.shard}", ld.checkpoint())

    def recover_loader(self, loader: SourceLoader) -> int:
        """Restore a failed loader from its latest checkpoint and replay
        the rows between the checkpointed cursor and where it had read
        to. Returns the replay window size (rows re-read)."""
        cursor_before = loader.state.cursor
        _, ckpt = self.store.latest(f"loader/{loader.spec.name}/{loader.shard}")
        loader.restore(ckpt)
        replay = max(0, cursor_before - loader.state.cursor)
        if replay > 0:
            loader.fill(replay)
        return replay

    def recover_planner(self) -> dict:
        _, state = self.store.latest("planner")
        return state


class ShadowLoader:
    """Hot-standby replica of a Source Loader.

    ``sync()`` mirrors the active loader's checkpointable state (cursor
    and progress counters) into the standby every step — cheap, since it
    is metadata only; the standby refills its own buffer lazily. On
    ``promote()`` the standby becomes the active loader immediately,
    refilling from the synchronised cursor, so data delivery continues
    without a replay stall.
    """

    def __init__(self, active: SourceLoader):
        self.active = active
        self.standby = SourceLoader(
            active.spec,
            spark=active.spark,
            path=active.path,
            shard=active.shard,
            n_shards=active.n_shards,
            workers=active.workers,
            buffer_capacity=active.buffer_capacity,
            seed=active.seed,
        )
        self._synced_cursor = 0

    def sync(self) -> None:
        """Mirror active state into the standby (called each step)."""
        if self.active.failed:
            return
        ckpt = self.active.checkpoint()
        self.standby.restore(ckpt)
        self._synced_cursor = ckpt["cursor"]

    def promote(self) -> SourceLoader:
        """Swap the standby in as the new active loader.

        The synchronised cursor counts rows the failed loader had *read*,
        which includes buffered rows not yet delivered to a plan; the
        standby rewinds to the last delivered row (``prepared_upto`` —
        plans consume the buffer as a prefix) and re-reads the rest, so
        no sample is lost and none is delivered twice. The re-read is a
        warm-standby refresh, not a stall: it overlaps the current
        iteration like any ``fill``.
        """
        promoted = self.standby
        n, shard = promoted.n_shards, promoted.shard
        delivered = promoted.state.prepared_upto
        # shard-local position of the first undelivered row
        pos = max(0, (delivered - shard + n - 1) // n) if delivered > 0 else 0
        undelivered = promoted.state.cursor - pos
        promoted.state.cursor = pos
        if undelivered > 0:
            promoted.fill(undelivered)
        self.active = promoted
        self.standby = SourceLoader(
            promoted.spec,
            spark=promoted.spark,
            path=promoted.path,
            shard=promoted.shard,
            n_shards=promoted.n_shards,
            workers=promoted.workers,
            buffer_capacity=promoted.buffer_capacity,
            seed=promoted.seed,
        )
        self.standby.restore(promoted.checkpoint())
        return promoted
