"""Unit tests for the Source Loader actor (synthetic read path; the
Parquet read path is covered in test_spark_pipeline.py)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.source_loader import SourceLoader
from repro.data.sources import coyo_lite, generate_source_rows


@pytest.fixture
def spec():
    return coyo_lite()[0]


class TestFill:
    def test_fill_advances_cursor(self, spec):
        ld = SourceLoader(spec)
        got = ld.fill(10)
        assert got == 10
        assert ld.state.cursor == 10

    def test_buffer_capacity_respected(self, spec):
        ld = SourceLoader(spec, buffer_capacity=5)
        assert ld.fill(10) == 5
        assert ld.fill(10) == 0

    def test_rows_are_deterministic(self, spec):
        a = SourceLoader(spec, seed=3)
        b = SourceLoader(spec, seed=3)
        a.fill(20)
        b.fill(20)
        pd.testing.assert_frame_equal(a.summary_buffer(), b.summary_buffer())

    def test_sequential_fills_are_contiguous(self, spec):
        ld = SourceLoader(spec)
        ld.fill(5)
        ld.fill(5)
        assert list(ld.summary_buffer()["row_idx"]) == list(range(10))

    def test_failed_loader_raises(self, spec):
        ld = SourceLoader(spec)
        ld.fail()
        with pytest.raises(RuntimeError):
            ld.fill(1)

    def test_summary_does_not_alias_buffer(self, spec):
        ld = SourceLoader(spec)
        ld.fill(8)
        before = {c: v.copy() for c, v in ld.buffer.items()}
        summary = ld.summary_buffer()
        for c in ("row_idx", "text_len", "image_patches"):
            summary[c].to_numpy()[:] = -1
        summary.iloc[0, summary.columns.get_loc("source_id")] = -1
        for c, v in before.items():
            np.testing.assert_array_equal(ld.buffer[c], v)


class TestSharding:
    def test_shards_partition_rows(self, spec):
        shards = [SourceLoader(spec, shard=i, n_shards=2) for i in range(2)]
        for s in shards:
            s.fill(10)
        r0 = set(shards[0].summary_buffer()["row_idx"])
        r1 = set(shards[1].summary_buffer()["row_idx"])
        assert not (r0 & r1)
        assert all(i % 2 == 0 for i in r0)
        assert all(i % 2 == 1 for i in r1)

    def test_shard_rows_match_unsharded_stream(self, spec):
        ld = SourceLoader(spec, shard=1, n_shards=3, seed=0)
        ld.fill(4)
        expect = generate_source_rows(spec, 0, 12, seed=0)
        expect = expect[expect["row_idx"] % 3 == 1].reset_index(drop=True)
        pd.testing.assert_frame_equal(
            ld.summary_buffer().reset_index(drop=True),
            expect[["source_id", "source", "row_idx", "text_len", "image_patches"]],
        )

    def test_invalid_shard(self, spec):
        with pytest.raises(ValueError):
            SourceLoader(spec, shard=2, n_shards=2)


class TestPrepare:
    def test_prepare_moves_to_staged(self, spec):
        ld = SourceLoader(spec)
        ld.fill(10)
        ld.prepare([0, 1, 2])
        assert len(ld.summary_buffer()) == 7
        staged = ld.pop_staged()
        assert sorted(staged["row_idx"]) == [0, 1, 2]

    def test_prepare_missing_rows_raises(self, spec):
        ld = SourceLoader(spec)
        ld.fill(5)
        with pytest.raises(KeyError):
            ld.prepare([99])

    def test_prepare_rows_past_prefix_raises(self, spec):
        ld = SourceLoader(spec)
        ld.fill(5)
        with pytest.raises(ValueError):
            ld.prepare([0, 2])  # row 1 is buffered but skipped
        assert list(ld.summary_buffer()["row_idx"]) == list(range(5))
        ld.prepare([1, 0])  # a prefix in any order
        assert list(ld.pop_staged()["row_idx"]) == [0, 1]
        assert ld.state.prepared_upto == 2

    def test_pop_staged_drains(self, spec):
        ld = SourceLoader(spec)
        ld.fill(5)
        ld.prepare([0])
        ld.pop_staged()
        assert len(ld.pop_staged()) == 0

    @pytest.mark.parametrize("how", ["fresh", "failed", "restored", "drained"])
    def test_empty_frames_keep_typed_columns(self, spec, how):
        """With nothing staged or buffered, both frames still carry the
        generator's columns and dtypes."""
        ld = SourceLoader(spec)
        if how != "fresh":
            ld.fill(5)
            ld.prepare([0, 1])
        if how == "failed":
            ld.fail()
        elif how == "restored":
            ld.restore(ld.checkpoint())
        elif how == "drained":
            ld.prepare([2, 3, 4])
            ld.pop_staged()
        none = generate_source_rows(spec, 0, 0)
        pd.testing.assert_frame_equal(ld.pop_staged(), none)
        pd.testing.assert_frame_equal(
            ld.summary_buffer(),
            none[["source_id", "source", "row_idx", "text_len", "image_patches"]],
        )

    def test_latency_amortised_by_workers(self, spec):
        slow = SourceLoader(spec, workers=1)
        fast = SourceLoader(spec, workers=4)
        assert fast.transform_latency(100) == pytest.approx(
            slow.transform_latency(100) / 4
        )

    def test_prepare_returns_latency(self, spec):
        ld = SourceLoader(spec, workers=2)
        ld.fill(10)
        lat = ld.prepare(list(range(10)))
        assert lat == pytest.approx(10 * spec.transform_cost_s / 2)


class TestMemory:
    def test_workers_increase_memory(self, spec):
        a = SourceLoader(spec, workers=1)
        b = SourceLoader(spec, workers=8)
        assert b.memory_gb() > a.memory_gb()

    def test_sharding_reduces_file_state(self, spec):
        whole = SourceLoader(spec).memory_gb()
        half = SourceLoader(spec, shard=0, n_shards=2).memory_gb()
        assert half < whole

    def test_buffered_bytes_counted(self, spec):
        ld = SourceLoader(spec)
        empty = ld.memory_gb()
        ld.fill(100)
        assert ld.memory_gb() > empty


class TestCheckpoint:
    def test_roundtrip(self, spec):
        ld = SourceLoader(spec)
        ld.fill(10)
        ld.prepare([0, 1])
        ckpt = ld.checkpoint()
        fresh = SourceLoader(spec)
        fresh.restore(ckpt)
        assert fresh.state.cursor == 10
        assert fresh.state.prepared_upto == 2

    def test_restore_clears_failure(self, spec):
        ld = SourceLoader(spec)
        ld.fill(5)
        ckpt = ld.checkpoint()
        ld.fail()
        ld.restore(ckpt)
        assert ld.fill(1) == 1  # operational again

    def test_restore_wrong_loader_rejected(self, spec):
        other = coyo_lite()[1]
        ld = SourceLoader(spec)
        ckpt = ld.checkpoint()
        with pytest.raises(ValueError):
            SourceLoader(other).restore(ckpt)

    def test_replayed_rows_identical(self, spec):
        # re-reading after restore reproduces exactly the same samples
        ld = SourceLoader(spec, seed=7)
        ld.fill(10)
        before = ld.summary_buffer()
        ckpt = SourceLoader(spec, seed=7).checkpoint()  # cursor 0
        ld.restore(ckpt)
        ld.fill(10)
        pd.testing.assert_frame_equal(ld.summary_buffer(), before)


class TestValidation:
    def test_bad_workers(self, spec):
        with pytest.raises(ValueError):
            SourceLoader(spec, workers=0)

    def test_parquet_needs_spark(self, spec):
        with pytest.raises(ValueError):
            SourceLoader(spec, path="/tmp/x")
