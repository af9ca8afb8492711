"""Tests for Fig. 9 orchestration strategies and the hybrid routing table."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.dgraph import DGraph, with_sample_id
from repro.core.placetree import AXIS_WORLD, ClientPlaceTree
from repro.core.primitives import (
    encoder_cost_fn,
    llm_balance,
    vanilla_plan,
    vlm_hybrid_balance,
)
from repro.data.mixture import ConstantSchedule
from repro.data.sources import coyo_lite, generate_samples
from repro.sim.models import BACKBONES, ENCODERS


@pytest.fixture(scope="module")
def buffer_df(spark):
    specs = coyo_lite()
    df = generate_samples(spark, specs, rows_per_source=200, seed=4)
    return (
        with_sample_id(df)
        .withColumn("step", (F.col("row_idx") % 2).cast("int"))
        .cache()
    )


TREE = ClientPlaceTree.from_degrees(pp=1, dp=4, cp=1, tp=1)
LLAMA = BACKBONES["llama-12b"]
VIT = ENCODERS["vit-1b"]


def _spread(pdf, bucket_col, cost_col):
    loads = pdf.groupby(["step", bucket_col])[cost_col].sum()
    return float((loads.groupby("step").max() / loads.groupby("step").mean()).mean())


class TestLLMBalance:
    def test_balances_backbone_cost(self, buffer_df):
        plan = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2)
        pdf = plan.to_pandas()
        assert _spread(pdf, "bucket", "cost") < 1.1

    def test_tp_broadcast_declared(self, buffer_df):
        tree = ClientPlaceTree.from_degrees(dp=2, tp=2)
        plan = llm_balance(buffer_df, tree, LLAMA)
        assert plan.broadcast_dims == ("TP",)

    def test_no_tp_no_broadcast(self, buffer_df):
        plan = llm_balance(buffer_df, TREE, LLAMA)
        assert plan.broadcast_dims == ()

    def test_mix_needs_batch_size(self, buffer_df):
        with pytest.raises(ValueError):
            llm_balance(buffer_df, TREE, LLAMA, schedule=ConstantSchedule([1] * 5))


class TestVanilla:
    def test_no_cost_column_information(self, buffer_df):
        plan = vanilla_plan(buffer_df, TREE, n_microbatches=2)
        pdf = plan.to_pandas()
        assert (pdf["cost"] == 1.0).all()  # no cost model registered

    def test_round_robin_counts(self, buffer_df):
        plan = vanilla_plan(buffer_df, TREE)
        counts = plan.to_pandas().groupby(["step", "bucket"]).size()
        assert counts.max() - counts.min() <= 2


class TestMerge:
    def test_merge_preserves_samples(self, buffer_df):
        merged = vlm_hybrid_balance(buffer_df, TREE, LLAMA, VIT, n_microbatches=2)
        llm = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2)
        assert merged.count() == llm.assignments.count() == buffer_df.count()

    def test_merged_columns(self, buffer_df):
        merged = vlm_hybrid_balance(
            buffer_df, TREE, LLAMA, VIT, n_microbatches=2
        )
        assert merged.columns == [
            "sample_id", "source_id", "row_idx", "step", "text_len", "image_patches",
            "llm_cost", "llm_bucket", "llm_mb", "enc_cost", "enc_bucket", "enc_mb",
        ]

    def test_hybrid_balances_both_modules(self, buffer_df):
        merged = vlm_hybrid_balance(
            buffer_df, TREE, LLAMA, VIT, n_microbatches=2
        ).toPandas()
        assert _spread(merged, "llm_bucket", "llm_cost") < 1.1
        assert _spread(merged, "enc_bucket", "enc_cost") < 1.1

    def test_hybrid_with_mix(self, buffer_df):
        sched = ConstantSchedule([1, 1, 1, 1, 1])
        merged = vlm_hybrid_balance(
            buffer_df, TREE, LLAMA, VIT, schedule=sched, batch_size=60
        ).toPandas()
        assert (merged.groupby("step").size() == 60).all()

    def test_encoder_buckets_span_world(self, buffer_df):
        """Backbone buckets are DP groups; encoder buckets are all ranks."""
        tree = ClientPlaceTree.from_degrees(dp=2, tp=2)
        merged = vlm_hybrid_balance(
            buffer_df, tree, LLAMA, VIT, n_microbatches=2
        ).toPandas()
        assert set(merged["llm_bucket"]) == set(range(tree.n_buckets("DP")))
        assert set(merged["enc_bucket"]) == set(range(tree.world_size))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_separate_plans(self, buffer_df, mixed):
        """Per sample, the hybrid table holds the backbone plan and the
        encoder plan over the samples the backbone plan admitted."""
        mix = dict(schedule=ConstantSchedule([3, 1, 1, 2, 1]), batch_size=60) if mixed else {}
        merged = vlm_hybrid_balance(buffer_df, TREE, LLAMA, VIT, n_microbatches=2, **mix)
        llm = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2, **mix).assignments
        enc = (
            DGraph.from_buffer(llm, fields=["image_patches"])
            .distribute(AXIS_WORLD, TREE, n_microbatches=2)
            .cost(encoder_cost_fn(VIT))
            .balance()
            .plan()
            .assignments
        )
        plan_cols = ["cost", "bucket", "mb"]
        expect = llm.toPandas().rename(columns={c: f"llm_{c}" for c in plan_cols}).merge(
            enc.select("sample_id", *plan_cols)
            .toPandas()
            .rename(columns={c: f"enc_{c}" for c in plan_cols}),
            on="sample_id",
        )
        got = merged.toPandas()
        assert len(got) == len(expect) == (120 if mixed else 1000)
        pd.testing.assert_frame_equal(
            got.sort_values("sample_id").reset_index(drop=True),
            expect[got.columns].sort_values("sample_id").reset_index(drop=True),
        )

    def test_one_planning_pass_no_join(self, buffer_df):
        merged = vlm_hybrid_balance(buffer_df, TREE, LLAMA, VIT, n_microbatches=2)
        plan = merged._jdf.queryExecution().executedPlan().toString()
        assert plan.count("FlatMapGroupsInPandas") == 1
        assert "Join" not in plan
