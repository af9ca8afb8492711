"""Training-iteration simulator — orchestration throughput (E2, Fig. 13).

Converts a loading plan's routing table into iteration times under the
synchronous-training execution model of §2.3:

- Per (step, rank, microbatch): backbone time from the FLOPs model —
  linear work on total packed tokens plus quadratic segmented-attention
  work — and encoder time from per-image patch costs. Padding is
  estimated from the token total per (rank, mb) and the context
  capacity (``ceil(tokens/ctx)*ctx - tokens``, equal to FFD packing
  waste up to fragmentation) but by default contributes *no* compute:
  the paper's stack packs without padding compute (NaViT patch-packing
  for the encoder [14], packed segment masks for the backbone [31]).
  ``count_padding=True`` restores dense-kernel padding cost.
- Per microbatch, data-parallel synchronisation means the slowest rank
  gates everyone: ``mb_time = max_rank(enc_time + llm_time)``.
- Iteration time = sum of microbatch times plus the pipeline-bubble
  term: with ``pp`` pipeline stages, the 1F1B warm-up/drain bubble is
  paced by the slowest microbatch — ``(pp - 1) * max_mb(mb_time)`` —
  which is exactly how §1 says stragglers "exacerbate pipeline bubbles
  over pipeline stages". ``pp=1`` disables it.
- Throughput = batch tokens / iteration time.

Everything is Spark SQL aggregation over the routing table (the
quantities are plain sums/maxes), so the oracle can verify it.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.sim.models import GPU_FLOPS, ModelConfig, attention_coeff, linear_coeff

#: routing-table columns trainsim expects (``vlm_hybrid_balance`` output)
ROUTING_COLS = (
    "step",
    "text_len",
    "image_patches",
    "llm_bucket",
    "llm_mb",
    "enc_bucket",
    "enc_mb",
)


@dataclass(frozen=True)
class StepTimes:
    """Aggregated simulation result over all steps."""

    df: DataFrame  # (step, iter_time_s, tokens)

    def summary(self) -> dict[str, float]:
        row = self.df.agg(
            F.sum("tokens").alias("tokens"),
            F.sum("iter_time_s").alias("time_s"),
            F.avg("iter_time_s").alias("mean_iter_s"),
            F.max("iter_time_s").alias("max_iter_s"),
        ).collect()[0]
        time_s = float(row["time_s"]) or 1e-12
        return {
            "tokens": float(row["tokens"]),
            "time_s": time_s,
            "mean_iter_s": float(row["mean_iter_s"]),
            "max_iter_s": float(row["max_iter_s"]),
            "throughput_tokens_per_s": float(row["tokens"]) / time_s,
        }


def normalize_routing(plan_df: DataFrame) -> DataFrame:
    """Accept either a merged VLM routing table (llm_*/enc_* columns) or
    a single-plan assignment table (bucket/mb), mapping the latter to
    both modules (encoder follows the backbone's placement — the
    Vanilla and Backbone-balance behaviours)."""
    cols = set(plan_df.columns)
    if {"llm_bucket", "llm_mb"} <= cols:
        df = plan_df
    elif {"bucket", "mb"} <= cols:
        df = (
            plan_df.withColumn("llm_bucket", F.col("bucket"))
            .withColumn("llm_mb", F.col("mb"))
        )
    else:
        raise ValueError("plan has neither llm_bucket/llm_mb nor bucket/mb")
    if "enc_bucket" not in df.columns:
        df = df.withColumn("enc_bucket", F.col("llm_bucket")).withColumn(
            "enc_mb", F.col("llm_mb")
        )
    return df.select(*ROUTING_COLS)


def simulate(
    plan_df: DataFrame,
    backbone: ModelConfig,
    encoder: ModelConfig,
    *,
    context_length: int,
    n_ranks: int,
    n_microbatches: int,
    gpu_flops: float = GPU_FLOPS,
    count_padding: bool = False,
    pp: int = 1,
) -> StepTimes:
    """Iteration times for a routing table (all steps it contains)."""
    if context_length <= 0 or n_ranks <= 0 or n_microbatches <= 0 or pp <= 0:
        raise ValueError("context_length, n_ranks, n_microbatches, pp must be positive")
    df = normalize_routing(plan_df)
    fused = (F.col("text_len") + F.col("image_patches")).cast("double")
    patches = F.col("image_patches").cast("double")
    zero = F.lit(0.0)

    # each sample adds its backbone work at its llm slot and its encoder
    # work at its enc slot, zeros elsewhere; one aggregation sums both.
    # Both rows come from one pass over the routing table, so the plan
    # that produced it runs once. The encoder's linear and attention
    # terms are summed apart and added afterwards; one sum of both would
    # round differently.
    llm = F.struct(
        F.col("llm_bucket").alias("rank"), F.col("llm_mb").alias("mb"),
        fused.alias("tokens"), (fused * fused).alias("sq_tokens"),
        zero.alias("enc_lin"), zero.alias("enc_att"),
    )
    enc = F.struct(
        F.col("enc_bucket").alias("rank"), F.col("enc_mb").alias("mb"),
        zero.alias("tokens"), zero.alias("sq_tokens"),
        (F.lit(linear_coeff(encoder)) * patches).alias("enc_lin"),
        (F.lit(attention_coeff(encoder)) * patches * patches).alias("enc_att"),
    )
    per_rank_mb = (
        df.select("step", F.inline(F.array(llm, enc)))
        .groupBy("step", "rank", "mb")
        .agg(*(F.sum(c).alias(c) for c in ("tokens", "sq_tokens", "enc_lin", "enc_att")))
        # backbone: linear on packed+padded tokens, quadratic on
        # per-subsequence fused lengths
        .withColumn(
            "padded",
            (
                F.ceil(F.col("tokens") / F.lit(context_length)) * context_length
                - F.col("tokens")
            )
            * F.lit(1.0 if count_padding else 0.0),
        )
        .withColumn(
            "llm_s",
            (
                F.lit(linear_coeff(backbone)) * (F.col("tokens") + F.col("padded"))
                + F.lit(attention_coeff(backbone)) * F.col("sq_tokens")
            )
            / F.lit(gpu_flops),
        )
        .withColumn("enc_s", (F.col("enc_lin") + F.col("enc_att")) / F.lit(gpu_flops))
    )
    # DP sync per microbatch: the slowest rank gates the microbatch
    per_mb = per_rank_mb.groupBy("step", "mb").agg(
        F.max(F.col("llm_s") + F.col("enc_s")).alias("mb_time_s"),
        F.sum("tokens").alias("tokens"),
    )
    per_step = per_mb.groupBy("step").agg(
        (
            F.sum("mb_time_s") + F.lit(float(pp - 1)) * F.max("mb_time_s")
        ).alias("iter_time_s"),
        F.sum("tokens").alias("tokens"),
    )
    return StepTimes(per_step)
