"""Tests for the training-iteration simulator (E2 engine)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.dgraph import with_sample_id
from repro.core.placetree import ClientPlaceTree
from repro.core.primitives import llm_balance, vanilla_plan, vlm_hybrid_balance
from repro.data.sources import coyo_lite, generate_samples
from repro.oracle import assert_equivalent
from repro.sim.models import BACKBONES, ENCODERS
from repro.sim.trainsim import normalize_routing, simulate, slot_sums, step_times

TREE = ClientPlaceTree.from_degrees(dp=4)
LLAMA = BACKBONES["llama-12b"]
VIT = ENCODERS["vit-1b"]
CTX = 4096


@pytest.fixture(scope="module")
def buffer_df(spark):
    df = generate_samples(spark, coyo_lite(), rows_per_source=200, seed=6)
    return (
        with_sample_id(df)
        .withColumn("step", (F.col("row_idx") % 2).cast("int"))
        .cache()
    )


class TestNormalize:
    def test_single_plan_mapped_to_both_modules(self, spark):
        pdf = pd.DataFrame(
            {
                "step": [0],
                "text_len": [10],
                "image_patches": [20],
                "bucket": [1],
                "mb": [0],
            }
        )
        out = normalize_routing(spark.createDataFrame(pdf)).collect()[0]
        assert out["llm_bucket"] == out["enc_bucket"] == 1
        assert out["llm_mb"] == out["enc_mb"] == 0

    def test_rejects_garbage(self, spark):
        df = spark.range(1)
        with pytest.raises(ValueError):
            normalize_routing(df)


class TestSimulate:
    def test_hand_computed_single_sample(self, spark):
        from repro.sim.models import attention_coeff, linear_coeff

        pdf = pd.DataFrame(
            {
                "step": [0],
                "text_len": [100],
                "image_patches": [0],
                "bucket": [0],
                "mb": [0],
            }
        )
        routing = spark.createDataFrame(pdf)
        st = simulate(
            routing,
            LLAMA,
            VIT,
            context_length=CTX,
            n_ranks=1,
            n_microbatches=1,
            gpu_flops=1.0,
            count_padding=True,
        )
        (row,) = st.df.to_dict("records")
        # padding: ceil(100/4096)*4096 - 100 = 3996 linear-only tokens
        expect = (
            linear_coeff(LLAMA) * (100 + 3996) + attention_coeff(LLAMA) * 100**2
        )
        assert row["iter_time_s"] == pytest.approx(expect, rel=1e-9)
        assert row["tokens"] == 100
        # the Spark aggregation behind it: one slot, exact integer sums
        (sums,) = slot_sums(
            normalize_routing(routing).withColumn("plan_id", F.lit(0))
        ).collect()
        assert sums.asDict() == dict(
            plan_id=0, step=0, rank=0, mb=0,
            tokens=100, sq_tokens=100**2, patches=0, sq_patches=0,
        )

    def test_invalid_params(self, spark, buffer_df):
        plan = vanilla_plan(buffer_df, TREE)
        with pytest.raises(ValueError):
            simulate(plan.assignments, LLAMA, VIT, context_length=0, n_ranks=4, n_microbatches=1)

    def test_summary_fields(self, buffer_df):
        plan = vanilla_plan(buffer_df, TREE, n_microbatches=2)
        s = simulate(
            plan.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2
        ).summary()
        assert s["tokens"] > 0
        assert s["throughput_tokens_per_s"] == pytest.approx(
            s["tokens"] / s["time_s"]
        )

    def test_balanced_beats_vanilla(self, buffer_df):
        van = vanilla_plan(buffer_df, TREE, n_microbatches=2)
        bal = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2)
        t_van = simulate(
            van.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2
        ).summary()
        t_bal = simulate(
            bal.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2
        ).summary()
        assert (
            t_bal["throughput_tokens_per_s"] > t_van["throughput_tokens_per_s"]
        )

    def test_hybrid_beats_backbone_only(self, buffer_df):
        bal = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2)
        hyb = vlm_hybrid_balance(buffer_df, TREE, LLAMA, VIT, n_microbatches=2)
        t_bal = simulate(
            bal.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2
        ).summary()
        t_hyb = simulate(
            hyb, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2
        ).summary()
        assert (
            t_hyb["throughput_tokens_per_s"]
            >= t_bal["throughput_tokens_per_s"] * 0.98
        )

    def test_tokens_conserved_across_strategies(self, buffer_df):
        van = vanilla_plan(buffer_df, TREE, n_microbatches=2)
        bal = llm_balance(buffer_df, TREE, LLAMA, n_microbatches=2)
        a = simulate(van.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2).summary()
        b = simulate(bal.assignments, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2).summary()
        assert a["tokens"] == pytest.approx(b["tokens"])

    def test_one_pass_no_join(self, buffer_df):
        """The routing table is read once, so the planning pass behind it
        runs once, and backbone and encoder work are summed per (step,
        rank, mb) in one aggregation, not joined."""
        routing = vlm_hybrid_balance(buffer_df, TREE, LLAMA, VIT, n_microbatches=2)
        sums = slot_sums(normalize_routing(routing).withColumn("plan_id", F.lit(0)))
        plan = sums._jdf.queryExecution().executedPlan().toString()
        assert plan.count("FlatMapGroupsInPandas") == 1
        assert "Join" not in plan
        # simulate finishes from exactly these rows
        got = simulate(routing, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2)
        want = step_times(sums.toPandas(), LLAMA, VIT, context_length=CTX)
        pd.testing.assert_frame_equal(got.df, want.df)

    def test_empty_routing(self, spark):
        """A routing table with no samples simulates to zero tokens and
        zero throughput."""
        empty = spark.createDataFrame(
            [], "step int, text_len int, image_patches int, bucket int, mb int"
        )
        s = simulate(empty, LLAMA, VIT, context_length=CTX, n_ranks=4, n_microbatches=2).summary()
        assert s["tokens"] == 0
        assert s["throughput_tokens_per_s"] == 0

    def test_oracle_iteration_time(self, spark, buffer_df):
        """Verify the whole Spark aggregation against DuckDB SQL."""
        from repro.sim.models import attention_coeff, linear_coeff

        plan = vanilla_plan(buffer_df, TREE, n_microbatches=2)
        st = simulate(
            plan.assignments,
            LLAMA,
            VIT,
            context_length=CTX,
            n_ranks=4,
            n_microbatches=2,
            gpu_flops=1e12,
            count_padding=True,
        )
        routing = normalize_routing(plan.assignments)
        lin_b, att_b = linear_coeff(LLAMA), attention_coeff(LLAMA)
        lin_e, att_e = linear_coeff(VIT), attention_coeff(VIT)
        sql = f"""
        WITH fused AS (
          SELECT step, llm_bucket AS rank, llm_mb AS mb,
                 sum(text_len + image_patches) AS tokens,
                 sum(pow(text_len + image_patches, 2)) AS sq
          FROM routing GROUP BY 1, 2, 3
        ), llm AS (
          -- tokens + padding = ceil(tokens/ctx)*ctx (linear term), plus
          -- quadratic segmented-attention work
          SELECT step, rank, mb, tokens,
                 ({lin_b} * ceil(tokens / {CTX}.0) * {CTX}
                  + {att_b} * sq) / 1e12 AS llm_s
          FROM fused
        ), enc AS (
          SELECT step, enc_bucket AS rank, enc_mb AS mb,
                 ({lin_e} * sum(image_patches)
                  + {att_e} * sum(pow(image_patches, 2))) / 1e12 AS enc_s
          FROM routing GROUP BY 1, 2, 3
        ), joined AS (
          SELECT coalesce(l.step, e.step) AS step,
                 coalesce(l.mb, e.mb) AS mb,
                 coalesce(l.llm_s, 0) + coalesce(e.enc_s, 0) AS t,
                 coalesce(l.tokens, 0) AS tokens
          FROM llm l FULL JOIN enc e
            ON l.step = e.step AND l.rank = e.rank AND l.mb = e.mb
        ), per_mb AS (
          SELECT step, mb, max(t) AS mb_time, sum(tokens) AS tokens
          FROM joined GROUP BY step, mb
        )
        SELECT step, sum(mb_time) AS iter_time_s, sum(tokens) AS tokens
        FROM per_mb GROUP BY step
        """
        assert_equivalent(st.df, sql, routing=routing)
