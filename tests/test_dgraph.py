"""Tests for the DGraph data plane: primitives, planning, lineage."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.dgraph import DGraph, with_sample_id
from repro.core.placetree import AXIS_WORLD, ClientPlaceTree
from repro.data.mixture import ConstantSchedule
from repro.data.sources import coyo_lite, generate_samples
from repro.oracle import assert_equivalent
from tests import reference


@pytest.fixture(scope="module")
def buffer_df(spark):
    specs = coyo_lite()
    df = generate_samples(spark, specs, rows_per_source=240, seed=2)
    df = with_sample_id(df).withColumn(
        "step", (F.col("row_idx") % 3).cast("int")
    )
    return df.cache()


TREE = ClientPlaceTree.from_degrees(pp=1, dp=4, cp=1, tp=2)


def simple_cost(pdf):
    return (pdf["text_len"] + pdf["image_patches"]).to_numpy(dtype=float) ** 2


class TestConstruction:
    def test_missing_columns_rejected(self, spark):
        df = spark.range(3).select(F.col("id").alias("sample_id"))
        with pytest.raises(ValueError):
            DGraph(("text_len",)).distribute("DP", TREE).plan(df)

    def test_fields_recorded(self):
        g = DGraph(("text_len",))
        assert g.fields == ("text_len",)

    def test_select_modality(self):
        g = DGraph(("text_len",))
        img = g.select_modality(["image_patches"])
        assert img.fields == ("image_patches",)
        assert ("buffered", "select_modality", "buffered") in img.lineage


class TestPrimitiveValidation:
    def test_plan_requires_distribute(self, buffer_df):
        g = DGraph(("text_len",))
        with pytest.raises(RuntimeError):
            g.plan(buffer_df)

    def test_mix_requires_positive_batch(self):
        g = DGraph(("text_len",))
        with pytest.raises(ValueError):
            g.mix(ConstantSchedule([1, 1, 1, 1, 1]), 0)

    def test_distribute_validates_axis(self):
        g = DGraph(("text_len",))
        with pytest.raises(KeyError):
            g.distribute("EP", TREE)

    def test_immutability(self):
        g = DGraph(("text_len",))
        g2 = g.distribute("DP", TREE)
        assert g.state == "buffered" and g2.state == "distributed"


class TestLineage:
    def test_edges_accumulate(self):
        g = (
            DGraph(("text_len", "image_patches"))
            .mix(ConstantSchedule([1] * 5), 40)
            .distribute("DP", TREE, n_microbatches=2)
            .cost(simple_cost)
            .balance("greedy")
            .broadcast_at("TP")
        )
        states = [e[2] for e in g.lineage_edges()]
        assert states == ["sampled", "distributed", "costed", "balanced", "balanced"]

    def test_plan_edge(self, buffer_df):
        g = DGraph(("text_len",)).distribute("DP", TREE)
        plan = g.plan(buffer_df)
        assert plan.lineage[-1][1] == "plan"


class TestPlanExecution:
    def test_vanilla_round_robin(self, buffer_df):
        plan = (
            DGraph(("text_len", "image_patches"))
            .distribute("DP", TREE, n_microbatches=2)
            .plan(buffer_df)
        )
        pdf = plan.to_pandas()
        # all samples admitted (no mix), buckets nearly equal in count
        assert len(pdf) == 5 * 240
        counts = pdf.groupby("bucket").size()
        assert counts.max() - counts.min() <= 3
        assert set(pdf["bucket"]) == {0, 1, 2, 3}
        assert set(pdf["mb"]) == {0, 1}

    def test_mix_apportions_by_weight(self, buffer_df):
        sched = ConstantSchedule([1, 1, 0, 0, 0])
        plan = (
            DGraph(("text_len", "image_patches"))
            .mix(sched, 40)
            .distribute("DP", TREE)
            .plan(buffer_df)
        )
        pdf = plan.to_pandas()
        per_step = pdf.groupby("step").size()
        assert (per_step == 40).all()
        assert set(pdf["source_id"]) == {0, 1}

    def test_balance_reduces_cost_spread(self, buffer_df):
        base = DGraph(("text_len", "image_patches"))
        vanilla = base.distribute("DP", TREE).cost(simple_cost).plan(buffer_df).to_pandas()
        balanced = (
            base.distribute("DP", TREE)
            .cost(simple_cost)
            .balance("karmarkar_karp")
            .plan(buffer_df)
            .to_pandas()
        )

        def max_over_mean(pdf):
            loads = pdf.groupby(["step", "bucket"])["cost"].sum()
            return (loads.groupby("step").max() / loads.groupby("step").mean()).mean()

        assert max_over_mean(balanced) < max_over_mean(vanilla)
        assert max_over_mean(balanced) < 1.05

    def test_same_samples_both_strategies(self, buffer_df):
        base = DGraph(("text_len", "image_patches"))
        a = base.distribute("DP", TREE).plan(buffer_df).to_pandas()
        b = base.distribute("DP", TREE).cost(simple_cost).balance().plan(buffer_df).to_pandas()
        assert sorted(a["sample_id"]) == sorted(b["sample_id"])

    def test_world_axis_bucket_count(self, buffer_df):
        plan = (
            DGraph(("image_patches",))
            .distribute(AXIS_WORLD, TREE)
            .plan(buffer_df)
        )
        assert plan.n_buckets == TREE.world_size
        pdf = plan.to_pandas()
        assert pdf["bucket"].max() < TREE.world_size

    def test_group_size_coalesces_buckets(self, buffer_df):
        plan = (
            DGraph(("text_len",))
            .distribute("DP", TREE, group_size=2)
            .plan(buffer_df)
        )
        assert plan.n_buckets == 2

    def test_oracle_bucket_counts(self, spark, buffer_df):
        # the plan's per-(step,bucket) sample counts agree with DuckDB
        plan = (
            DGraph(("text_len", "image_patches"))
            .distribute("DP", TREE, n_microbatches=2)
            .plan(buffer_df)
        )
        agg = plan.assignments.groupBy("step", "bucket").agg(
            F.count("*").alias("n"), F.sum("cost").alias("total_cost")
        )
        assert_equivalent(
            agg,
            "SELECT step, bucket, count(*) AS n, sum(cost) AS total_cost "
            "FROM plan GROUP BY step, bucket",
            plan=plan.assignments,
        )


class TestStepFunction:
    """``graph(pdf)`` mixes with one index over the summary's columns; it
    equals the frame-based step function in ``tests/reference.py``."""

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),  # source_id: 5 and 6 have no quota
                st.integers(0, 40),  # row_idx, in any order, repeats allowed
                st.integers(1, 4000),
                st.integers(16, 3000),
            ),
            max_size=60,
        ),
        # a zero weight makes a source absent from the mix
        st.lists(st.integers(0, 3), min_size=5, max_size=5).filter(any),
        st.integers(1, 80),  # batch size: quotas may exceed the buffered rows
        st.integers(0, 5),
        st.sampled_from([None, "greedy", "karmarkar_karp"]),
        st.integers(1, 3),
    )
    @example([], [1] * 5, 10, 0, "karmarkar_karp", 2)
    @example([(6, 3, 10, 16), (5, 0, 7, 20)], [1] * 5, 10, 1, None, 1)
    @settings(max_examples=150, deadline=None)
    def test_equals_frame_reference(self, rows, weights, batch, step, method, n_mb):
        sid, row_idx, text_len, patches = np.array(rows, dtype=np.int64).reshape(-1, 4).T
        pdf = pd.DataFrame({
            "source_id": sid.astype(np.int32),
            "source": [f"s{i}" for i in sid],
            "row_idx": row_idx,
            "text_len": text_len.astype(np.int32),
            "image_patches": patches.astype(np.int32),
            "sample_id": sid * (1 << 40) + row_idx,
            "step": np.full(len(sid), step, dtype=np.int64),
        })
        graph = (
            DGraph(("text_len", "image_patches"))
            .mix(ConstantSchedule(weights), batch)
            .distribute("DP", ClientPlaceTree.from_degrees(dp=3), n_microbatches=n_mb)
            .cost(simple_cost)
        )
        if method is not None:
            graph = graph.balance(method)
        got = graph(pdf)
        want = reference.plan_step(graph, pdf)
        pd.testing.assert_frame_equal(got, want, check_index_type=True)


class TestConsumers:
    def test_broadcast_recorded_in_plan(self, buffer_df):
        plan = (
            DGraph(("text_len",))
            .distribute("DP", TREE)
            .broadcast_at("TP")
            .plan(buffer_df)
        )
        cons = plan.consumers(0)
        ranks = set(cons)
        # only tp==0 clients of DP group 0 fetch
        for r in ranks:
            assert plan.tree.clients[r].coords["TP"] == 0

    def test_no_broadcast_all_tp_consume(self, buffer_df):
        plan = (
            DGraph(("text_len",))
            .distribute("DP", TREE)
            .plan(buffer_df)
        )
        assert len(plan.consumers(0)) == 2  # tp=2 clients in DP group 0
