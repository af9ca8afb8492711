"""Unit tests for balancing and packing algorithms."""
from unittest import mock

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import balance as B
from repro.core.primitives import llm_cost_fn
from repro.data.sources import coyo_lite, generate_source_rows
from repro.sim.models import BACKBONES
from tests import reference

# zeros and small integers give equal loads and equal spreads, so the
# heap's and the load sort's tie-breaks decide the assignment
COSTS = st.lists(
    st.one_of(st.integers(0, 4).map(float), st.floats(min_value=0, max_value=1e6)),
    max_size=60,
)


@st.composite
def kk_boundary_cases(draw):
    """k up to 40 and n next to k, m*k and m*k +- 1, over a few costs that
    include 0.0: sparse merges that exactly fill k, sparse merges that
    leave implicit empty slots next to explicit zero-cost ones, and the
    dense fallback all run."""
    k = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.sampled_from([k - 2, k - 1, k, k + 1, k + 2, m * k - 1, m * k, m * k + 1]))
    costs = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.5]), min_size=n, max_size=n))
    return costs, k


def coyo_costs(n: int) -> np.ndarray:
    """Backbone costs of ``coyo_stream``'s samples: ``coyo_lite`` rows
    through ``llm_cost_fn(llama-12b)``, the sources interleaved."""
    specs = coyo_lite()
    per = -(-n // len(specs))
    rows = [generate_source_rows(s, 0, per, seed=1) for s in specs]
    mixed = pd.concat(rows).sort_values("row_idx", kind="stable").iloc[:n]
    return llm_cost_fn(BACKBONES["llama-12b"])(mixed)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("method", [B.greedy_binpack, B.karmarkar_karp])
def test_rejects_non_finite_costs(method, bad):
    with pytest.raises(ValueError):
        method(np.array([bad, 1.0, 2.0]), 2)


class TestGreedyBinpack:
    def test_empty(self):
        assert B.greedy_binpack(np.array([]), 3).shape == (0,)

    def test_single_bin(self):
        a = B.greedy_binpack(np.array([3.0, 1.0, 2.0]), 1)
        assert (a == 0).all()

    def test_assignment_in_range(self):
        a = B.greedy_binpack(np.arange(20, dtype=float), 4)
        assert a.min() >= 0 and a.max() < 4

    def test_all_items_assigned(self):
        costs = np.random.default_rng(0).random(100)
        a = B.greedy_binpack(costs, 7)
        assert len(a) == 100

    def test_perfect_split(self):
        # two items of 5 and two of 3 over two bins -> loads 8/8
        costs = np.array([5.0, 5.0, 3.0, 3.0])
        a = B.greedy_binpack(costs, 2)
        loads = B.bin_loads(costs, a, 2)
        assert loads[0] == loads[1] == 8.0

    def test_lpt_bound(self):
        # LPT makespan <= 4/3 OPT; vs the mean lower bound that means
        # imbalance <= 4/3 * n_bins-worst-case, but on uniform inputs it
        # should be close to 1
        g = np.random.default_rng(1)
        costs = g.random(1000)
        assert B.imbalance(costs, B.greedy_binpack(costs, 8), 8) < 1.05

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            B.greedy_binpack(np.array([-1.0]), 2)

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            B.greedy_binpack(np.array([1.0]), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            B.greedy_binpack(np.ones((2, 2)), 2)


class TestKarmarkarKarp:
    def test_empty(self):
        assert B.karmarkar_karp(np.array([]), 3).shape == (0,)

    def test_single_bin(self):
        assert (B.karmarkar_karp(np.array([1.0, 2.0]), 1) == 0).all()

    def test_classic_example(self):
        # {8,7,6,5,4} into 2 bins: the KK differencing sequence is
        # (8,7)->1, (6,5)->1, (4,1)->3, (3,1)->2, i.e. loads 16/14
        costs = np.array([8.0, 7.0, 6.0, 5.0, 4.0])
        a = B.karmarkar_karp(costs, 2)
        loads = np.sort(B.bin_loads(costs, a, 2))
        assert list(loads) == [14.0, 16.0]

    def test_all_assigned_in_range(self):
        g = np.random.default_rng(2)
        costs = g.random(200)
        a = B.karmarkar_karp(costs, 5)
        assert len(a) == 200 and a.min() >= 0 and a.max() < 5

    @pytest.mark.parametrize("n_bins", [2, 3, 4, 8])
    def test_beats_or_matches_random_on_heavy_tail(self, n_bins):
        g = np.random.default_rng(3)
        costs = g.pareto(1.2, size=300) + 1
        kk = B.imbalance(costs, B.karmarkar_karp(costs, n_bins), n_bins)
        rnd = B.imbalance(costs, g.integers(0, n_bins, 300), n_bins)
        assert kk <= rnd

    @pytest.mark.parametrize("n_bins", [2, 4])
    def test_competitive_with_greedy(self, n_bins):
        g = np.random.default_rng(4)
        costs = g.pareto(1.1, size=256) + 1
        kk = B.imbalance(costs, B.karmarkar_karp(costs, n_bins), n_bins)
        gr = B.imbalance(costs, B.greedy_binpack(costs, n_bins), n_bins)
        assert kk <= gr * 1.05

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=60),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_partition(self, costs, n_bins):
        costs = np.asarray(costs)
        a = B.karmarkar_karp(costs, n_bins)
        assert len(a) == len(costs)
        if len(costs):
            assert a.min() >= 0 and a.max() < n_bins
        # conservation: every item lands exactly once
        assert np.isclose(B.bin_loads(costs, a, n_bins).sum(), costs.sum())

    @given(
        st.one_of(
            st.tuples(COSTS, st.integers(min_value=1, max_value=9)),
            kk_boundary_cases(),
        )
    )
    @example(([5.0], 4))  # n = 1 < k: the final entry's other slots are empty
    @example(([0.0, 0.0, 0.0], 3))  # n = k, all tied
    @example(([3.0, 3.0], 9))
    @example(([0.0, 1.0, 0.0], 4))  # explicit zero-cost slots ahead of empty ones
    @settings(max_examples=600, deadline=None)
    def test_matches_reference(self, case):
        costs, n_bins = np.asarray(case[0], dtype=np.float64), case[1]
        assert np.array_equal(
            B.karmarkar_karp(costs, n_bins), reference.karmarkar_karp(costs, n_bins)
        )

    @pytest.mark.parametrize(
        "n_items, n_bins",
        [(2304, 32), (72, 4)],  # coyo_stream's two balancing levels
    )
    def test_matches_reference_on_coyo_costs(self, n_items, n_bins):
        costs = coyo_costs(n_items)
        assert np.array_equal(
            B.karmarkar_karp(costs, n_bins), reference.karmarkar_karp(costs, n_bins)
        )

    def test_matches_reference_at_step_size(self):
        # one coyo_stream step: 2304 samples over 32 DP buckets
        costs = np.random.default_rng(12).pareto(1.2, 2304) + 1
        assert np.array_equal(
            B.karmarkar_karp(costs, 32), reference.karmarkar_karp(costs, 32)
        )


class TestMethodRegistry:
    def test_known_names(self):
        assert B.balance_method("greedybinpacking") is B.greedy_binpack
        assert B.balance_method("karmarkar-karp") is B.karmarkar_karp
        assert B.balance_method("Karmarkar_Karp") is B.karmarkar_karp

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            B.balance_method("zigzag-nope")


class TestPacking:
    def test_single_fits(self):
        seqs = B.pack_sequences(np.array([10]), 16)
        assert len(seqs) == 1 and seqs[0].used == 10 and seqs[0].padding == 6

    def test_truncates_over_capacity(self):
        seqs = B.pack_sequences(np.array([100]), 16)
        assert seqs[0].used == 16

    def test_ffd_packs_tightly(self):
        # 4+4+4+4 into capacity 8 -> exactly 2 sequences
        seqs = B.pack_sequences(np.array([4, 4, 4, 4]), 8)
        assert len(seqs) == 2 and all(s.padding == 0 for s in seqs)

    def test_every_item_packed_once(self):
        lengths = np.random.default_rng(6).integers(1, 100, 200)
        seqs = B.pack_sequences(lengths, 128)
        items = [i for s in seqs for i in s.items]
        assert sorted(items) == list(range(200))

    def test_capacity_respected(self):
        lengths = np.random.default_rng(7).integers(1, 64, 500)
        for s in B.pack_sequences(lengths, 64):
            assert s.used <= 64

    def test_attention_cost_is_segmented(self):
        s = B.PackedSequence(items=(0, 1), lengths=(30, 70), capacity=100)
        # 30^2 + 70^2 = 5800, not 100^2
        assert s.attention_cost() == 5800.0

    def test_paper_example_16_percent(self):
        # §1: a (30,70) pack costs ~16% more attention than (50,50)
        unbal = B.PackedSequence((0, 1), (30, 70), 100).attention_cost()
        bal = B.PackedSequence((0, 1), (50, 50), 100).attention_cost()
        assert unbal / bal == pytest.approx(1.16)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            B.pack_sequences(np.array([1]), 0)


class TestTwoLevel:
    def test_shapes(self):
        costs = np.random.default_rng(8).random(120)
        bucket, bins = B.balance_two_level(costs, 4, 3)
        assert bucket.shape == bins.shape == (120,)
        assert bucket.max() < 4 and bins.max() < 3

    def test_inter_bucket_balance(self):
        # achieves within 5% of the theoretical lower bound (a single
        # heavy-tail item can dominate a whole bucket)
        g = np.random.default_rng(9)
        costs = g.pareto(1.2, 400) + 1
        bucket, _ = B.balance_two_level(costs, 8, 4)
        mean = costs.sum() / 8
        lower = max(costs.max(), mean) / mean
        assert B.imbalance(costs, bucket, 8) <= lower * 1.05

    def test_intra_bin_balance(self):
        g = np.random.default_rng(10)
        costs = g.pareto(1.2, 400) + 1
        bucket, bins = B.balance_two_level(costs, 4, 4)
        for b in range(4):
            idx = np.flatnonzero(bucket == b)
            mean = costs[idx].sum() / 4
            lower = max(costs[idx].max(), mean) / mean
            assert B.imbalance(costs[idx], bins[idx], 4) <= lower * 1.05

    def test_no_intra_reorder_keeps_chunks(self):
        costs = np.ones(32)
        bucket, bins = B.balance_two_level(
            costs, 2, 4, method="greedy", intra_reorder=False
        )
        for b in range(2):
            idx = np.flatnonzero(bucket == b)
            # arrival-order chunks: bins must be non-decreasing over idx
            assert (np.diff(bins[idx]) >= 0).all()

    def test_empty_input(self):
        bucket, bins = B.balance_two_level(np.array([]), 2, 2)
        assert len(bucket) == 0 and len(bins) == 0

    @pytest.mark.parametrize("method", ["greedy", "karmarkar_karp"])
    def test_methods_work(self, method):
        costs = np.random.default_rng(11).random(64)
        bucket, bins = B.balance_two_level(costs, 4, 2, method=method)
        assert bucket.max() < 4 and bins.max() < 2

    @given(
        COSTS,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    )
    @example([5.0], 3, 2, True)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, costs, n_buckets, n_bins, intra_reorder):
        costs = np.asarray(costs, dtype=np.float64)
        got = B.balance_two_level(costs, n_buckets, n_bins, intra_reorder=intra_reorder)
        with mock.patch.dict(B._METHODS, karmarkar_karp=reference.karmarkar_karp):
            want = B.balance_two_level(
                costs, n_buckets, n_bins, intra_reorder=intra_reorder
            )
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
