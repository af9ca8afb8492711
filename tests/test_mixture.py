"""Unit tests for mixing schedules and the moving-average tracker."""
import numpy as np
import pytest

from repro.data.mixture import (
    ConstantSchedule,
    CurriculumSchedule,
    LossAdaptiveSchedule,
    MovingAverageTracker,
    StagedSchedule,
    WarmupSchedule,
)


class TestConstant:
    def test_normalised(self):
        s = ConstantSchedule([1, 1, 2])
        assert np.allclose(s.weights(0), [0.25, 0.25, 0.5])

    def test_step_invariant(self):
        s = ConstantSchedule([3, 1])
        assert np.allclose(s.weights(0), s.weights(10_000))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantSchedule([1, -1])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ConstantSchedule([0, 0])


class TestSampleCounts:
    def test_sum_equals_batch(self):
        s = ConstantSchedule([1, 2, 3, 4])
        for step in range(5):
            assert s.sample_counts(step, 97).sum() == 97

    def test_proportionality(self):
        s = ConstantSchedule([1, 3])
        counts = s.sample_counts(0, 100)
        assert counts[0] == 25 and counts[1] == 75

    def test_deterministic(self):
        s = ConstantSchedule([1, 1, 1])
        a = s.sample_counts(7, 10, seed=42)
        b = s.sample_counts(7, 10, seed=42)
        assert (a == b).all()

    def test_no_negative_counts(self):
        s = ConstantSchedule([1e-9, 1.0])
        counts = s.sample_counts(0, 5)
        assert (counts >= 0).all() and counts.sum() == 5


class TestStaged:
    def test_stage_switch(self):
        s = StagedSchedule([(0, [1, 0]), (10, [0, 1])])
        assert s.weights(9)[0] == 1.0
        assert s.weights(10)[1] == 1.0

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            StagedSchedule([(5, [1, 1])])

    def test_must_be_sorted(self):
        with pytest.raises(ValueError):
            StagedSchedule([(0, [1, 1]), (20, [1, 0]), (10, [0, 1])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StagedSchedule([])

    def test_stage_lengths_must_match(self):
        with pytest.raises(ValueError, match="lengths differ"):
            StagedSchedule([(0, [1, 1]), (3, [1, 1, 1])])


class TestWarmup:
    def test_endpoints(self):
        s = WarmupSchedule([1, 0], [0, 1], warmup_steps=10)
        assert np.allclose(s.weights(0), [1, 0])
        assert np.allclose(s.weights(10), [0, 1])
        assert np.allclose(s.weights(999), [0, 1])

    def test_midpoint(self):
        s = WarmupSchedule([1, 0], [0, 1], warmup_steps=10)
        assert np.allclose(s.weights(5), [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            WarmupSchedule([1], [1, 1], 5)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            WarmupSchedule([1], [1], 0)


class TestCurriculum:
    def test_easy_first(self):
        s = CurriculumSchedule(difficulty=[0.0, 1.0], total_steps=100)
        w0 = s.weights(0)
        assert w0[0] > w0[1]  # easy source dominates early

    def test_hard_share_grows(self):
        s = CurriculumSchedule(difficulty=[0.0, 1.0], total_steps=100)
        early = s.weights(0)[1]
        late = s.weights(100)[1]
        assert late > early

    def test_normalised_every_step(self):
        s = CurriculumSchedule(difficulty=[0.1, 0.5, 0.9], total_steps=50)
        for step in (0, 10, 25, 50):
            assert s.weights(step).sum() == pytest.approx(1.0)

    def test_rejects_out_of_range_difficulty(self):
        with pytest.raises(ValueError):
            CurriculumSchedule([0.5, 1.5], 10)


class TestLossAdaptive:
    def test_uniform_before_updates(self):
        s = LossAdaptiveSchedule(n_sources=4)
        assert np.allclose(s.weights(0), 0.25)

    def test_high_loss_upweighted(self):
        s = LossAdaptiveSchedule(n_sources=2, ema=0.0)
        s.update([5.0, 1.0])
        w = s.weights(0)
        assert w[0] > w[1]

    def test_ema_smooths(self):
        fast = LossAdaptiveSchedule(n_sources=2, ema=0.0)
        slow = LossAdaptiveSchedule(n_sources=2, ema=0.99)
        fast.update([5.0, 1.0])
        slow.update([5.0, 1.0])
        assert fast.weights(0)[0] > slow.weights(0)[0]

    def test_rejects_wrong_length(self):
        s = LossAdaptiveSchedule(n_sources=3)
        with pytest.raises(ValueError):
            s.update([1.0, 2.0])

    def test_checkpoint_restores_ema(self):
        s = LossAdaptiveSchedule(n_sources=3, ema=0.5)
        s.update([3.0, 1.0, 2.0])
        ck, want = s.checkpoint(), s.weights(0)
        s.update([9.0, 9.0, 1.0])  # the checkpoint must not follow
        fresh = LossAdaptiveSchedule(n_sources=3, ema=0.5)
        fresh.restore(ck)
        assert np.array_equal(fresh.weights(0), want)
        assert not np.allclose(want, 1 / 3)


class TestMovingAverageTracker:
    def test_average(self):
        t = MovingAverageTracker(2, window=2)
        t.observe(np.array([1.0, 0.0]), hi=0.5, lo=0.1)
        t.observe(np.array([0.0, 1.0]), hi=0.5, lo=0.1)
        assert np.allclose(t.moving_average(), [0.5, 0.5])

    def test_consecutive_above(self):
        t = MovingAverageTracker(1, window=4)
        for _ in range(3):
            t.observe(np.array([0.9]), hi=0.5, lo=0.1)
        assert t.consecutive_above()[0] == 3

    def test_counter_resets(self):
        t = MovingAverageTracker(1, window=1)
        t.observe(np.array([0.9]), hi=0.5, lo=0.1)
        t.observe(np.array([0.3]), hi=0.5, lo=0.1)
        assert t.consecutive_above()[0] == 0

    def test_consecutive_below(self):
        t = MovingAverageTracker(1, window=1)
        for _ in range(2):
            t.observe(np.array([0.01]), hi=0.5, lo=0.1)
        assert t.consecutive_below()[0] == 2

    def test_window_bounded(self):
        t = MovingAverageTracker(1, window=2)
        t.observe(np.array([1.0]), hi=2, lo=0)
        t.observe(np.array([0.0]), hi=2, lo=0)
        t.observe(np.array([0.0]), hi=2, lo=0)
        assert t.moving_average()[0] == 0.0  # the 1.0 fell out of the window
