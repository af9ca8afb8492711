"""Ready-made orchestration strategies (Fig. 9).

The paper shows two worked strategies built from the primitives:

- ``llm_balance`` — unimodal long-short-sequence balancing across DP
  ranks with a token-count cost model (seven lines in the paper).
- ``vlm_hybrid_balance`` — the multimodal extension: an image DGraph is
  derived from the *same* buffer with different metadata, distributed
  world-wide for the encoder and balanced over the samples the backbone
  plan admitted (five additional lines in the paper). Both graphs plan
  in one per-step function that emits one routing table with separate
  (bucket, mb) columns per module: ``llm_*`` for the text/fused
  sequences and ``enc_*`` for the raw images. The ``enc_*`` columns
  feed only ``trainsim`` (E2's step-time simulation); the in-process
  ``DataConstructor`` builds backbone microbatches from single-module
  ``bucket``/``mb`` plans and builds no encoder microbatch.
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


def _sampled(schedule: MixSchedule | None, batch_size: int | None) -> DGraph:
    """The sample graph, mixed by ``schedule`` when one is given."""
    g = DGraph(("text_len", "image_patches"))
    if schedule is None:
        return g
    if batch_size is None:
        raise ValueError("mix() needs a batch_size")
    return g.mix(schedule, batch_size)


def llm_graph(
    tree: ClientPlaceTree,
    backbone: ModelConfig,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    method: str = "karmarkar_karp",
    intra_reorder: bool = True,
) -> DGraph:
    """The backbone graph shared by ``llm_balance``, the hybrid and E2."""
    return (
        _sampled(schedule, batch_size)
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
    intra_reorder: bool = True,
) -> LoadingPlan:
    """Fig. 9's unimodal strategy: distribute along DP, cost by fused
    token count, balance inter-microbatch, and broadcast at TP whenever
    the mesh has TP > 1."""
    g = llm_graph(
        tree, backbone, schedule, batch_size, n_microbatches, method, intra_reorder
    )
    if tree.dims["TP"] > 1:
        g = g.broadcast_at("TP")
    return g.plan(buffer_df)


def vanilla_graph(
    tree: ClientPlaceTree,
    *,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    axis: str = "DP",
) -> DGraph:
    """No scheduling: samples assigned round-robin in arrival order —
    the paper's Vanilla baseline."""
    return _sampled(schedule, batch_size).distribute(
        axis, tree, n_microbatches=n_microbatches
    )


def vanilla_plan(
    buffer_df: DataFrame,
    tree: ClientPlaceTree,
    *,
    schedule: MixSchedule | None = None,
    batch_size: int | None = None,
    n_microbatches: int = 1,
    axis: str = "DP",
) -> LoadingPlan:
    """``vanilla_graph`` planned over ``buffer_df``."""
    return vanilla_graph(
        tree, schedule=schedule, batch_size=batch_size,
        n_microbatches=n_microbatches, axis=axis,
    ).plan(buffer_df)


def hybrid_step(
    graph: DGraph, tree: ClientPlaceTree, encoder: ModelConfig, n_microbatches: int,
    method: str = "karmarkar_karp",
) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """The hybrid's step over one backbone step's output: an image graph,
    a sibling of ``graph`` distributed world-wide and balanced by encoder
    cost, plans exactly the samples that step admitted, and the two plans
    are joined per ``sample_id`` as ``llm_*`` and ``enc_*`` columns."""
    plan_enc = (
        graph.select_modality(["image_patches"])
        .distribute(AXIS_WORLD, tree, n_microbatches=n_microbatches)
        .cost(encoder_cost_fn(encoder))
        .balance(method)
    )
    plan_cols = [f.name for f in PLAN_FIELDS]

    def step(llm: pd.DataFrame) -> pd.DataFrame:
        enc = plan_enc(llm[[*BUFFER_KEY_COLS, "image_patches"]])[["sample_id", *plan_cols]]
        return llm.rename(columns={c: f"llm_{c}" for c in plan_cols}).merge(
            enc.rename(columns={c: f"enc_{c}" for c in plan_cols}), on="sample_id"
        )

    return step


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
    text = llm_graph(tree, backbone, schedule, batch_size, n_microbatches, method)
    plan_hybrid = hybrid_step(text, tree, encoder, n_microbatches, method)

    def run_step(pdf: pd.DataFrame) -> pd.DataFrame:
        return plan_hybrid(text(pdf))

    rows = text.bind(buffer_df)
    schema = T.StructType(
        list(rows.schema)
        + [
            T.StructField(f"{m}_{f.name}", f.dataType, False)
            for m in ("llm", "enc")
            for f in PLAN_FIELDS
        ]
    )
    return rows.groupBy("step").applyInPandas(run_step, schema=schema)
