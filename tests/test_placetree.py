"""Unit tests for the ClientPlaceTree device-mesh model."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.placetree import AXIS_WORLD, DIMS, ClientPlaceTree
from tests import reference


class TestConstruction:
    def test_world_size(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=4, cp=2, tp=2)
        assert t.world_size == 32
        assert len(t.clients) == 32

    def test_ranks_unique_and_dense(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=3, cp=2, tp=2)
        assert sorted(c.rank for c in t.clients) == list(range(24))

    def test_coords_in_range(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        for c in t.clients:
            for d in ("PP", "DP", "CP", "TP"):
                assert 0 <= c.coord(d) < 2

    def test_leaf_dim_varies_fastest(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=2, cp=1, tp=2)
        # rank order: (dp0,tp0), (dp0,tp1), (dp1,tp0), (dp1,tp1)
        assert [c.coords["TP"] for c in t.clients] == [0, 1, 0, 1]
        assert [c.coords["DP"] for c in t.clients] == [0, 0, 1, 1]

    def test_rejects_zero_degree(self):
        with pytest.raises(ValueError):
            ClientPlaceTree.from_degrees(dp=0)

    def test_rejects_missing_dim(self):
        with pytest.raises(KeyError):
            ClientPlaceTree({"DP": 2, "CP": 1, "TP": 2})

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            ClientPlaceTree({"PP": 1, "DP": 2, "CP": 1, "TP": 2, "EP": 2})


class TestBuckets:
    def test_dp_buckets(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=4, cp=2, tp=2)
        assert t.n_buckets("DP") == 4

    def test_cp_buckets_are_dp_times_cp(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=4, cp=2, tp=2)
        assert t.n_buckets("CP") == 8

    def test_world_buckets(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=4, cp=2, tp=2)
        assert t.n_buckets(AXIS_WORLD) == 32

    def test_pp_excluded_from_bucketing(self):
        # every PP stage of a DP group shares the group's bucket
        t = ClientPlaceTree.from_degrees(pp=4, dp=2, cp=1, tp=1)
        assert t.n_buckets("DP") == 2
        buckets = {t.bucket_of(c, "DP") for c in t.clients if c.coords["DP"] == 1}
        assert buckets == {1}

    def test_group_size_coalesces(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=8, cp=1, tp=1)
        assert t.n_buckets("DP", group_size=3) == 3  # ceil(8/3)
        assert {t.bucket_of(c, "DP", group_size=3) for c in t.clients} == {0, 1, 2}

    def test_bucket_assignment_covers_all_buckets(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=4, cp=2, tp=2)
        assert {t.bucket_of(c, "DP") for c in t.clients} == set(range(4))

    def test_same_dp_group_same_bucket(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        for c in t.clients:
            assert t.bucket_of(c, "DP") == c.coords["DP"]

    def test_unknown_axis(self):
        t = ClientPlaceTree.from_degrees(dp=2)
        with pytest.raises(KeyError):
            t.n_buckets("EP")

    def test_bad_group_size(self):
        t = ClientPlaceTree.from_degrees(dp=2)
        with pytest.raises(ValueError):
            t.n_buckets("DP", group_size=0)


class TestConsumers:
    def test_dp_axis_all_group_members_consume(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=2, cp=1, tp=1)
        cons = t.consumers(0, "DP")
        assert set(cons) == {0}
        assert cons[0] == "full"

    def test_cp_ranks_get_shards(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=2, cp=2, tp=1)
        cons = t.consumers(0, "DP")
        assert all(kind == "shard" for kind in cons.values())
        assert len(cons) == 2

    def test_pp_stage_gt0_gets_metadata(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=1, tp=1)
        cons = t.consumers(0, "DP")
        kinds = {t.clients[r].coords["PP"]: k for r, k in cons.items()}
        assert kinds[0] == "full" and kinds[1] == "metadata"

    def test_broadcast_excludes_tp_gt0(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=1, cp=1, tp=4)
        cons = t.consumers(0, "DP", broadcast_dims=("TP",))
        assert set(cons) == {0}

    def test_no_broadcast_all_tp_fetch(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=1, cp=1, tp=4)
        cons = t.consumers(0, "DP")
        assert len(cons) == 4

    def test_world_axis_single_consumer(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=2, cp=1, tp=2)
        cons = t.consumers(3, AXIS_WORLD)
        assert set(cons) == {3}

    def test_consumer_count_saved_by_broadcast(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=4)
        plain = sum(len(t.consumers(b, "DP")) for b in range(2))
        bcast = sum(
            len(t.consumers(b, "DP", broadcast_dims=("TP",))) for b in range(2)
        )
        assert bcast * 4 == plain

    @given(
        st.fixed_dictionaries({d: st.integers(1, 3) for d in ("pp", "dp", "cp", "tp")}),
        st.lists(st.sampled_from(DIMS), max_size=2, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, degrees, broadcast_dims):
        # one tree serves every (axis, group_size) in turn, as a plan's
        # constructors share their plan's tree; the oracle walks each
        # client's coordinates instead of the rank rule
        t = ClientPlaceTree.from_degrees(**degrees)
        for dim in DIMS:
            assert t.selective_broadcast_groups(dim) == (
                reference.selective_broadcast_groups(t, dim)
            )
        for axis in (*DIMS, AXIS_WORLD):
            for group_size in (None, 1, 2, 3):
                n = t.n_buckets(axis, group_size)
                assert n == reference.n_buckets(t, axis, group_size)
                for c in t.clients:
                    assert t.bucket_of(c, axis, group_size) == (
                        reference.bucket_of(t, c, axis, group_size)
                    )
                kw = dict(group_size=group_size, broadcast_dims=tuple(broadcast_dims))
                for b in range(-1, n + 1):
                    got = t.consumers(b, axis, **kw)
                    want = reference.consumers(t, b, axis, **kw)
                    assert list(got.items()) == list(want.items())


class TestSelectiveBroadcast:
    def test_tp_groups(self):
        t = ClientPlaceTree.from_degrees(pp=1, dp=2, cp=1, tp=2)
        groups = t.selective_broadcast_groups("TP")
        assert len(groups) == 2  # one per (dp, cp) subtree
        assert all(len(g) == 2 for g in groups)

    def test_dp_level_groups(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        groups = t.selective_broadcast_groups("DP")
        assert len(groups) == 2  # one per PP stage
        assert all(len(g) == 8 for g in groups)

    def test_groups_partition_world(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        for dim in ("PP", "DP", "CP", "TP"):
            groups = t.selective_broadcast_groups(dim)
            flat = sorted(r for g in groups for r in g)
            assert flat == list(range(t.world_size))

    def test_unknown_dim(self):
        t = ClientPlaceTree.from_degrees(dp=2)
        with pytest.raises(KeyError):
            t.selective_broadcast_groups("EP")


class TestDpGroup:
    def test_group_size(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        assert len(t.consumers(0, "DP")) == 8  # pp*cp*tp

    def test_groups_disjoint(self):
        t = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=2, tp=2)
        r0 = set(t.consumers(0, "DP"))
        r1 = set(t.consumers(1, "DP"))
        assert not (r0 & r1)
        assert r0 | r1 == set(range(16))
