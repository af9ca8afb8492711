"""Shadow loaders and differential checkpointing (§6.1, Fig. 11).

- :class:`CheckpointStore` — a versioned persistent store (dict-backed
  here; the paper uses a remote KV/object store).
- :class:`DifferentialCheckpointer` — the Planner record is written
  every step and journals each loader's delivered position
  (``prepared_upto``, one int per source shard), while Source Loaders
  checkpoint only every ``loader_interval`` steps because their large
  read buffers make journaling expensive. A failed loader is *replayed*:
  it restores its checkpoint with the journaled delivered position and
  re-reads from the first undelivered row, which is deterministic by
  construction of the data generator.
- :class:`ShadowLoader` — a hot-standby replica kept state-synchronised
  with its active loader every step; ``promote()`` swaps it in with no
  replay stall, the spike-free recovery path of Fig. 16 (right).

Both paths restart through :meth:`SourceLoader.resume`, at the first
undelivered row, so every sample is delivered exactly once whichever
path runs.
"""
from __future__ import annotations

from dataclasses import dataclass
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


def _key(ld: SourceLoader) -> str:
    return f"loader/{ld.spec.name}/{ld.shard}"


@dataclass
class DifferentialCheckpointer:
    """Adaptive-frequency persistence: the planner record every step,
    each loader every ``loader_interval`` steps."""

    store: CheckpointStore
    loader_interval: int = 4

    def __post_init__(self):
        if self.loader_interval < 1:
            raise ValueError("loader_interval must be >= 1")

    def on_step(self, step: int, planner_state: dict, loaders: list[SourceLoader]) -> None:
        """Record step ``step``, just delivered: ``planner_state`` as the
        Planner gave it (its ``step`` is the next one to plan) plus each
        loader's delivered position; ``step`` itself only times the
        loader checkpoints."""
        delivered = {_key(ld): ld.state.prepared_upto for ld in loaders}
        self.store.put("planner", dict(planner_state, delivered=delivered))
        if step % self.loader_interval == 0:
            for ld in loaders:
                self.store.put(_key(ld), ld.checkpoint())

    def recover_loader(self, loader: SourceLoader) -> int:
        """Restore a failed loader from its latest checkpoint with the
        delivered position journaled in the latest planner record, then
        re-read from the first undelivered row to where it had read.
        Returns the number of rows re-read."""
        read_upto, key = loader.state.cursor, _key(loader)
        _, ckpt = self.store.latest(key)
        _, planner = self.store.latest("planner")
        loader.restore(dict(ckpt, prepared_upto=planner["delivered"][key]))
        return loader.resume(read_upto)

    def recover_planner(self) -> dict:
        _, state = self.store.latest("planner")
        return state


def _replica(ld: SourceLoader) -> SourceLoader:
    """A fresh loader for ``ld``'s source shard, restored to its state."""
    replica = SourceLoader(
        ld.spec, spark=ld.spark, path=ld.path, shard=ld.shard, n_shards=ld.n_shards,
        workers=ld.workers, buffer_capacity=ld.buffer_capacity, seed=ld.seed,
    )
    replica.restore(ld.checkpoint())
    return replica


class ShadowLoader:
    """Hot-standby replica of a Source Loader.

    ``sync()`` mirrors the active loader's checkpointable state (cursor
    and progress counters) into the standby every step — cheap, since it
    is metadata only; the standby refills its own buffer lazily. On
    ``promote()`` the standby becomes the active loader immediately, so
    data delivery continues without a replay stall.
    """

    def __init__(self, active: SourceLoader):
        self.active = active
        self.standby = _replica(active)

    def sync(self) -> None:
        """Mirror active state into the standby (called each step)."""
        if not self.active.failed:
            self.standby.restore(self.active.checkpoint())

    def promote(self) -> SourceLoader:
        """Swap the standby in as the new active loader.

        The standby re-reads the failed loader's undelivered rows, from
        the first undelivered row up to the synchronised read cursor
        (:meth:`SourceLoader.resume`), so no sample is lost and none is
        delivered twice. The re-read is a warm-standby refresh, not a
        stall: it overlaps the current iteration like any ``fill``.
        """
        promoted = self.standby
        promoted.resume(promoted.state.cursor)
        self.active, self.standby = promoted, _replica(promoted)
        return promoted
