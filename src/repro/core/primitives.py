"""Ready-made orchestration strategies (Fig. 9).

The paper shows two worked strategies built from the primitives:

- ``llm_balance`` — unimodal long-short-sequence balancing across DP
  ranks with a token-count cost model (seven lines in the paper).
- ``vlm_hybrid_balance`` — the multimodal extension: an image DGraph is
  derived from the *same* buffer with different metadata, distributed
  world-wide for the encoder and balanced over the samples the backbone
  plan admitted (five additional lines in the paper). Both graphs plan
  in one per-step function that emits one routing table with separate
  (bucket, mb) columns per module — the Data Constructor routes
  text/fused sequences by the ``llm_*`` columns and raw images by the
  ``enc_*`` columns.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.core.dgraph import BUFFER_KEY_COLS, PLAN_FIELDS, DGraph, LoadingPlan
from repro.core.placetree import AXIS_WORLD, ClientPlaceTree
from repro.data.mixture import MixSchedule
from repro.sim.models import ModelConfig, sample_backbone_cost, sample_encoder_cost


def llm_cost_fn(cfg: ModelConfig) -> Callable[[pd.DataFrame], np.ndarray]:
    """Backbone cost over fused (text + image-token) sequence length —
    quadratic in tokens, the paper's suggested backbone cost model."""

    def fn(pdf: pd.DataFrame) -> np.ndarray:
        img = (
            pdf["image_patches"].to_numpy()
            if "image_patches" in pdf.columns
            else np.zeros(len(pdf))
        )
        return sample_backbone_cost(cfg, pdf["text_len"].to_numpy(), img)

    return fn


def encoder_cost_fn(cfg: ModelConfig) -> Callable[[pd.DataFrame], np.ndarray]:
    """Encoder cost over per-image patch counts."""

    def fn(pdf: pd.DataFrame) -> np.ndarray:
        return sample_encoder_cost(cfg, pdf["image_patches"].to_numpy())

    return fn


def _sampled(
    buffer_df: DataFrame, schedule: MixSchedule | None, batch_size: int | None
) -> DGraph:
    """The buffer's sample graph, mixed by ``schedule`` when one is given."""
    g = DGraph.from_buffer(buffer_df, fields=["text_len", "image_patches"])
    if schedule is None:
        return g
    if batch_size is None:
        raise ValueError("mix() needs a batch_size")
    return g.mix(schedule, batch_size)


def _llm_graph(
    buffer_df: DataFrame,
    tree: ClientPlaceTree,
    backbone: ModelConfig,
    schedule: MixSchedule | None,
    batch_size: int | None,
    n_microbatches: int,
    method: str,
    intra_reorder: bool = True,
) -> DGraph:
    """The backbone graph shared by ``llm_balance`` and the hybrid."""
    return (
        _sampled(buffer_df, schedule, batch_size)
        .distribute("DP", tree, n_microbatches=n_microbatches)
        .cost(llm_cost_fn(backbone))
        .balance(method, intra_reorder=intra_reorder)
    )


def llm_balance(
    buffer_df: DataFrame,
    tree: ClientPlaceTree,
    backbone: ModelConfig,
    *,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    method: str = "karmarkar_karp",
    broadcast_tp: bool = True,
    intra_reorder: bool = True,
) -> LoadingPlan:
    """Fig. 9's unimodal strategy: distribute along DP, cost by fused
    token count, balance inter-microbatch, broadcast at TP."""
    g = _llm_graph(
        buffer_df, tree, backbone, schedule, batch_size, n_microbatches, method,
        intra_reorder,
    )
    if broadcast_tp and tree.dims.get("TP", 1) > 1:
        g = g.broadcast_at("TP")
    return g.plan()


def vanilla_plan(
    buffer_df: DataFrame,
    tree: ClientPlaceTree,
    *,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    axis: str = "DP",
) -> LoadingPlan:
    """No scheduling: samples assigned round-robin in arrival order —
    the paper's Vanilla baseline."""
    g = _sampled(buffer_df, schedule, batch_size)
    return g.distribute(axis, tree, n_microbatches=n_microbatches).plan()


def vlm_hybrid_balance(
    buffer_df: DataFrame,
    tree: ClientPlaceTree,
    backbone: ModelConfig,
    encoder: ModelConfig,
    *,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    method: str = "karmarkar_karp",
) -> DataFrame:
    """Fig. 9's multimodal strategy: balance fused sequences for the
    backbone and images for the encoder in one per-step plan, returning
    the routing table (sample keys, metadata, llm_cost/llm_bucket/llm_mb,
    enc_cost/enc_bucket/enc_mb)."""
    text = _llm_graph(
        buffer_df, tree, backbone, schedule, batch_size, n_microbatches, method
    )
    image = (
        text.select_modality(["image_patches"])
        .distribute(AXIS_WORLD, tree, n_microbatches=n_microbatches)
        .cost(encoder_cost_fn(encoder))
        .balance(method)
    )
    plan_llm, plan_enc = text.step_planner(), image.step_planner()
    image_cols = [*BUFFER_KEY_COLS, *image.fields]
    plan_cols = [f.name for f in PLAN_FIELDS]

    def run_step(pdf: pd.DataFrame) -> pd.DataFrame:
        llm = plan_llm(pdf)
        # the image graph sees exactly the samples the backbone step admitted
        enc = plan_enc(llm[image_cols])[["sample_id", *plan_cols]]
        return llm.rename(columns={c: f"llm_{c}" for c in plan_cols}).merge(
            enc.rename(columns={c: f"enc_{c}" for c in plan_cols}), on="sample_id"
        )

    keep = [*BUFFER_KEY_COLS, *text.fields]
    schema = T.StructType(
        [buffer_df.schema[c] for c in keep]
        + [
            T.StructField(f"{m}_{f.name}", f.dataType, False)
            for m in ("llm", "enc")
            for f in PLAN_FIELDS
        ]
    )
    return buffer_df.select(*keep).groupBy("step").applyInPandas(run_step, schema=schema)
