"""Unit tests for shadow loaders and differential checkpointing (§6.1)."""
import functools
import gc
import weakref

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    CheckpointStore,
    DifferentialCheckpointer,
    ShadowLoader,
)
from repro.core.source_loader import SourceLoader
from repro.data.sources import coyo_lite
from repro.experiments.e5_fault import RECOVERY_PATHS, delivered_stream


@pytest.fixture
def spec():
    return coyo_lite()[0]


class TestStore:
    def test_versions_increment(self):
        st = CheckpointStore()
        assert st.put("k", {"a": 1}) == 1
        assert st.put("k", {"a": 2}) == 2
        assert st.latest("k") == (2, {"a": 2})

    def test_keeps_only_latest_state(self):
        class State(dict):
            pass

        st, first = CheckpointStore(), State(a=1)
        st.put("k", first)
        old = weakref.ref(first)
        del first
        st.put("k", State(a=2))
        gc.collect()
        assert old() is None
        assert st.latest("k") == (2, {"a": 2})

    def test_missing_key(self):
        with pytest.raises(KeyError):
            CheckpointStore().latest("nope")

    def test_has(self):
        st = CheckpointStore()
        assert not st.has("k")
        st.put("k", 1)
        assert st.has("k")


class TestDifferential:
    def test_loader_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            DifferentialCheckpointer(CheckpointStore(), loader_interval=0)

    def test_planner_checkpointed_more_often(self, spec):
        st = CheckpointStore()
        dc = DifferentialCheckpointer(st, loader_interval=4)
        ld = SourceLoader(spec)
        for step in range(8):
            ld.fill(2)
            dc.on_step(step, {"step": step}, [ld])
        assert st.latest("planner")[0] == 8
        assert st.latest(f"loader/{spec.name}/0")[0] == 2  # steps 0 and 4

    def test_recover_replays_gap(self, spec):
        st = CheckpointStore()
        dc = DifferentialCheckpointer(st, loader_interval=4)
        ld = SourceLoader(spec)
        ld.fill(4)
        dc.on_step(0, {}, [ld])  # checkpoint at cursor 4
        ld.fill(6)  # cursor now 10
        ld.fail()
        replay = dc.recover_loader(ld)
        # nothing was delivered, so rows 0-9 are all re-read
        assert replay == 10
        assert ld.state.cursor == 10  # caught back up
        assert list(ld.summary_buffer()["row_idx"]) == list(range(10))

    def test_recover_skips_rows_delivered_after_checkpoint(self, spec):
        st = CheckpointStore()
        dc = DifferentialCheckpointer(st, loader_interval=4)
        ld = SourceLoader(spec, seed=1)
        ld.fill(10)
        dc.on_step(0, {}, [ld])  # loader checkpoint: cursor 10, nothing delivered
        ld.prepare(list(range(4)))  # rows 0-3 delivered after it
        dc.on_step(1, {}, [ld])  # the planner record journals delivered row 4
        ld.fill(2)  # cursor now 12
        ld.fail()
        assert dc.recover_loader(ld) == 8
        assert ld.state.cursor == 12
        assert list(ld.summary_buffer()["row_idx"]) == list(range(4, 12))

    def test_recover_sharded_loader(self, spec):
        dc = DifferentialCheckpointer(CheckpointStore(), loader_interval=4)
        ld = SourceLoader(spec, shard=1, n_shards=2)
        ld.fill(5)  # rows 1, 3, 5, 7, 9
        dc.on_step(0, {}, [ld])
        ld.prepare([1, 3])
        dc.on_step(1, {}, [ld])
        ld.fail()
        assert dc.recover_loader(ld) == 3
        assert list(ld.summary_buffer()["row_idx"]) == [5, 7, 9]

    def test_recover_planner(self):
        st = CheckpointStore()
        dc = DifferentialCheckpointer(st)
        # after delivering step 0 the Planner's own step is 1, the next to plan
        dc.on_step(0, {"mix": [0.5, 0.5], "step": 1}, [])
        state = dc.recover_planner()
        assert state["mix"] == [0.5, 0.5] and state["step"] == 1


class TestShadow:
    def test_sync_matches_cursor(self, spec):
        active = SourceLoader(spec)
        sh = ShadowLoader(active)
        active.fill(7)
        sh.sync()
        assert sh.standby.state.cursor == active.state.cursor == 7

    def test_lag_before_sync(self, spec):
        active = SourceLoader(spec)
        sh = ShadowLoader(active)
        active.fill(5)
        assert (sh.standby.state.cursor, active.state.cursor) == (0, 5)

    def test_promote_continues_stream(self, spec):
        active = SourceLoader(spec, seed=1)
        sh = ShadowLoader(active)
        active.fill(10)
        sh.sync()
        active.fail()
        promoted = sh.promote()
        # the failed loader's 10 buffered-but-undelivered rows were
        # re-read by the standby; new fills continue after them
        assert list(promoted.summary_buffer()["row_idx"]) == list(range(10))
        promoted.fill(5)
        assert list(promoted.summary_buffer()["row_idx"]) == list(range(15))

    def test_promote_skips_delivered_rows(self, spec):
        active = SourceLoader(spec, seed=1)
        sh = ShadowLoader(active)
        active.fill(10)
        active.prepare(list(range(6)))  # rows 0-5 delivered to a plan
        sh.sync()
        active.fail()
        promoted = sh.promote()
        # only the undelivered tail is re-read — no duplicate delivery
        assert list(promoted.summary_buffer()["row_idx"]) == list(range(6, 10))

    def test_promote_installs_fresh_standby(self, spec):
        active = SourceLoader(spec)
        sh = ShadowLoader(active)
        active.fill(3)
        sh.sync()
        promoted = sh.promote()
        assert sh.active is promoted
        assert sh.standby is not promoted
        assert sh.standby.state.cursor == promoted.state.cursor

    def test_promote_sharded_loader(self, spec):
        active = SourceLoader(spec, shard=1, n_shards=2)
        sh = ShadowLoader(active)
        active.fill(5)  # rows 1, 3, 5, 7, 9
        active.prepare([1, 3])
        sh.sync()
        active.fail()
        assert list(sh.promote().summary_buffer()["row_idx"]) == [5, 7, 9]

    def test_sync_skips_failed_active(self, spec):
        active = SourceLoader(spec)
        sh = ShadowLoader(active)
        active.fill(4)
        sh.sync()
        active.fill(4)
        active.fail()
        sh.sync()  # must not copy failed state
        assert sh.standby.state.cursor == 4


N_STEPS = 6


@functools.cache
def _uninterrupted(n_shards: int, loss_adaptive: bool = False) -> pd.DataFrame:
    return delivered_stream(N_STEPS, n_shards=n_shards, loss_adaptive=loss_adaptive)


class TestPlannerRestart:
    def test_restored_planner_continues_stream(self):
        """A Planner killed after step 2 and rebuilt from the planner
        record plans step 3 next, with the mixture that switches there."""
        got = delivered_stream(N_STEPS, kill_at=3, restart_planner=True)
        pd.testing.assert_frame_equal(got, _uninterrupted(1))


class TestDeliveredStream:
    def test_no_staged_rows_left(self, monkeypatch):
        """Every step's staged rows are popped: no loader the loop built,
        promoted or replayed still holds staged rows when it returns."""
        built = []
        init = SourceLoader.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(SourceLoader, "__init__", recording_init)
        delivered_stream(12, kill_at=6, kills=[(0, "shadow"), (1, "replay")])
        assert len(built) > 5
        assert [len(ld.pop_staged()) for ld in built] == [0] * len(built)


class TestExactlyOnce:
    """Whatever the failure step, killed set and recovery path of each
    killed loader, the mixture (staged or loss-adaptive), and whether the
    Planner is restarted too, the delivered stream equals an
    uninterrupted run's."""

    @settings(max_examples=100, deadline=None)
    @given(
        n_shards=st.sampled_from([1, 2]),
        loader_interval=st.integers(1, 4),
        kill_at=st.integers(1, N_STEPS - 1),  # >= 1: a loader checkpoint exists
        restart_planner=st.booleans(),
        loss_adaptive=st.booleans(),
        data=st.data(),
    )
    def test_stream_equals_uninterrupted(
        self, n_shards, loader_interval, kill_at, restart_planner, loss_adaptive, data
    ):
        kills = data.draw(
            st.dictionaries(
                st.integers(0, 5 * n_shards - 1),  # 5 coyo sources x n_shards
                st.sampled_from(RECOVERY_PATHS),
                min_size=0 if restart_planner else 1,
            ),
            label="kills",
        )
        got = delivered_stream(
            N_STEPS,
            n_shards=n_shards,
            loader_interval=loader_interval,
            kill_at=kill_at,
            kills=list(kills.items()),
            restart_planner=restart_planner,
            loss_adaptive=loss_adaptive,
        )
        assert not got.duplicated().any()
        pd.testing.assert_frame_equal(got, _uninterrupted(n_shards, loss_adaptive))
