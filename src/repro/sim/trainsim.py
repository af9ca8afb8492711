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

``slot_sums`` is the Spark aggregation: exact integer sums per (plan,
step, rank, mb) over routing tables tagged with a ``plan_id``, one pass
for all of a buffer's plans. ``step_times`` finishes one plan's sums
with one (backbone, encoder) pair's coefficients in pandas; the DuckDB
oracle checks the formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
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

    df: pd.DataFrame  # (step, iter_time_s, tokens)

    def summary(self) -> dict[str, float]:
        it = self.df["iter_time_s"]
        tokens, time_s = float(self.df["tokens"].sum()), float(it.sum())
        return {
            "tokens": tokens,
            "time_s": time_s,
            "mean_iter_s": float(it.mean()) if len(it) else 0.0,
            "max_iter_s": float(it.max()) if len(it) else 0.0,
            "throughput_tokens_per_s": tokens / time_s if time_s else 0.0,
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


def slot_sums(routing: DataFrame) -> DataFrame:
    """Per (plan_id, step, rank, mb) of routing tables with ``plan_id``
    and ``ROUTING_COLS``: fused tokens and their squares summed at each
    sample's (llm_bucket, llm_mb), image patches and their squares at its
    (enc_bucket, enc_mb), as longs. Integer sums are exact in doubles, so
    no result depends on the stage layout or on the other plans."""
    zero = F.lit(0).cast("long")
    # one row per sample and module from one read of the routing table,
    # so the planning pass behind it runs once
    llm = F.struct(
        F.col("llm_bucket").alias("rank"), F.col("llm_mb").alias("mb"),
        (F.col("text_len").cast("long") + F.col("image_patches")).alias("tokens"),
        zero.alias("patches"),
    )
    enc = F.struct(
        F.col("enc_bucket").alias("rank"), F.col("enc_mb").alias("mb"),
        zero.alias("tokens"), F.col("image_patches").cast("long").alias("patches"),
    )
    return (
        routing.select("plan_id", "step", F.inline(F.array(llm, enc)))
        .groupBy("plan_id", "step", "rank", "mb")
        .agg(
            *(F.sum(c).alias(c) for c in ("tokens", "patches")),
            *(F.sum(F.col(c) * F.col(c)).alias(f"sq_{c}") for c in ("tokens", "patches")),
        )
    )


def step_times(
    sums: pd.DataFrame,
    backbone: ModelConfig,
    encoder: ModelConfig,
    *,
    context_length: int,
    gpu_flops: float = GPU_FLOPS,
    count_padding: bool = False,
    pp: int = 1,
) -> StepTimes:
    """Iteration times of one plan from its ``slot_sums`` rows."""
    if context_length <= 0 or pp <= 0:
        raise ValueError("context_length and pp must be positive")
    tokens, sq_tokens, patches, sq_patches = (
        sums[c].to_numpy(np.float64) for c in ("tokens", "sq_tokens", "patches", "sq_patches")
    )
    # backbone: linear on packed+padded tokens, quadratic on
    # per-subsequence fused lengths
    padded = (np.ceil(tokens / context_length) * context_length - tokens) * float(count_padding)
    llm_s = (
        linear_coeff(backbone) * (tokens + padded) + attention_coeff(backbone) * sq_tokens
    ) / gpu_flops
    enc_s = (linear_coeff(encoder) * patches + attention_coeff(encoder) * sq_patches) / gpu_flops
    slots = pd.DataFrame(
        {"step": sums["step"], "mb": sums["mb"], "t": llm_s + enc_s, "tokens": tokens}
    )
    # DP sync per microbatch: the slowest rank gates the microbatch
    per_mb = slots.groupby(["step", "mb"]).agg(t=("t", "max"), tokens=("tokens", "sum"))
    steps = per_mb.groupby(level="step")
    iter_time_s = steps["t"].sum() + float(pp - 1) * steps["t"].max()
    return StepTimes(
        pd.DataFrame({"iter_time_s": iter_time_s, "tokens": steps["tokens"].sum()}).reset_index()
    )


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
    routing = normalize_routing(plan_df).withColumn("plan_id", F.lit(0))
    return step_times(
        slot_sums(routing).toPandas(), backbone, encoder, context_length=context_length,
        gpu_flops=gpu_flops, count_padding=count_padding, pp=pp,
    )
