"""E2 — end-to-end orchestration performance (Fig. 13).

For a (backbone, encoder, context length, dataset, strategy) cell:

1. generate a multi-step sample buffer from the dataset's sources,
   cropping samples to the context budget (half for images, the rest
   for text — the framework's crop transform); one buffer serves every
   cell of a (dataset, context length);
2. plan every step with the requested strategy, each distinct routing
   table of a buffer once, all in one pass — Vanilla (round-robin
   arrival), Backbone balance (LLM-cost Karmarkar–Karp across DP ranks,
   encoder follows), or Hybrid balance (backbone + world-wide image
   balancing, Fig. 9's VLM strategy);
3. feed the routing table to the training-iteration simulator and
   report throughput (tokens/s).

Batches are sized in *samples* (the paper's per-GPU batch size of 72),
not tokens: with heavy-tailed sample lengths, equal sample counts per
(rank, microbatch) slot produce wildly different token sums and
quadratic attention costs — exactly the Fig. 3 imbalance the balancing
strategies remove.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.dgraph import with_sample_id
from repro.core.placetree import ClientPlaceTree
from repro.core.primitives import hybrid_step, llm_graph, vanilla_graph
from repro.data.sources import SourceSpec, coyo_lite, generate_samples, navit_lite
from repro.sim.models import BACKBONES, ENCODERS
from repro.sim.trainsim import ROUTING_COLS, slot_sums, step_times

STRATEGIES = ("vanilla", "backbone", "hybrid")

DATASETS = {
    "coyo700m": coyo_lite,
    "navit_data": navit_lite,
}


@dataclass(frozen=True)
class E2Cell:
    """One Fig. 13 configuration cell and its measured throughput."""

    backbone: str
    encoder: str
    context_length: int
    dataset: str
    strategy: str
    throughput: float
    mean_iter_s: float
    tokens: float


def build_buffer(
    spark: SparkSession,
    specs: list[SourceSpec],
    *,
    context_length: int,
    n_steps: int,
    batch_size: int,
    seed: int = 0,
) -> DataFrame:
    """Multi-step sample buffer holding ~``batch_size`` samples per step
    spread evenly over the sources; samples cropped to the context
    budget (half for images, the remainder for text)."""
    rows_per_source = max(1, round(batch_size * n_steps / len(specs)))
    df = generate_samples(spark, specs, rows_per_source, seed=seed)
    half = context_length // 2
    df = (
        with_sample_id(df)
        .withColumn("step", (F.col("row_idx") % n_steps).cast("int"))
        .withColumn("image_patches", F.least(F.col("image_patches"), F.lit(half)))
        .withColumn(
            "text_len",
            F.least(F.col("text_len"), F.lit(context_length) - F.col("image_patches")),
        )
    )
    return df


def plan_routings(
    buffer: DataFrame,
    tree: ClientPlaceTree,
    backbones: tuple[str, ...],
    encoders: tuple[str, ...],
    strategies: tuple[str, ...],
    n_microbatches: int,
) -> tuple[DataFrame, dict[tuple[str, str, str], int]]:
    """Every distinct routing table of the (backbone, encoder, strategy)
    cells, planned in one ``groupBy("step").applyInPandas`` over
    ``buffer``: vanilla once, backbone once per backbone, hybrid once per
    (backbone, encoder) over that backbone's step. Returns the rows
    (``ROUTING_COLS`` + ``plan_id``) and each cell's ``plan_id``."""
    # vanilla depends on neither model, backbone on the backbone only
    plans = {
        (bb, enc, st): (st, None if st == "vanilla" else bb, enc if st == "hybrid" else None)
        for bb, enc, st in product(backbones, encoders, strategies)
    }
    plan_ids = {plan: i for i, plan in enumerate(dict.fromkeys(plans.values()))}
    plan_vanilla = vanilla_graph(tree, n_microbatches=n_microbatches)
    plan_llm = {
        bb: llm_graph(tree, BACKBONES[bb], n_microbatches=n_microbatches)
        for _, bb, _ in plan_ids if bb is not None
    }
    plan_hybrid = {
        enc: hybrid_step(plan_vanilla, tree, ENCODERS[enc], n_microbatches)
        for _, _, enc in plan_ids if enc is not None
    }

    def run_step(pdf: pd.DataFrame) -> pd.DataFrame:
        llm = {bb: plan(pdf) for bb, plan in plan_llm.items()}
        out = []
        for (st, bb, enc), plan_id in plan_ids.items():
            if st == "hybrid":
                routing = plan_hybrid[enc](llm[bb])
            else:  # a single plan routes the encoder with the backbone
                plan = llm[bb] if st == "backbone" else plan_vanilla(pdf)
                routing = plan.assign(
                    llm_bucket=plan["bucket"], llm_mb=plan["mb"],
                    enc_bucket=plan["bucket"], enc_mb=plan["mb"],
                )
            out.append(routing[list(ROUTING_COLS)].assign(plan_id=plan_id))
        return pd.concat(out, ignore_index=True)

    schema = ", ".join(f"{c} int" for c in (*ROUTING_COLS, "plan_id"))
    grouped = plan_vanilla.bind(buffer).groupBy("step")
    cell_ids = {cell: plan_ids[plan] for cell, plan in plans.items()}
    return grouped.applyInPandas(run_step, schema), cell_ids


def run_cell(
    spark: SparkSession,
    *,
    backbone: str,
    encoder: str,
    context_length: int,
    dataset: str,
    strategy: str,
    **kwargs,
) -> E2Cell:
    """Measure one configuration cell: ``run_grid`` over single values."""
    (cell,) = run_grid(
        spark,
        backbones=(backbone,),
        encoders=(encoder,),
        context_lengths=(context_length,),
        datasets=(dataset,),
        strategies=(strategy,),
        **kwargs,
    )
    return cell


def run_grid(
    spark: SparkSession,
    *,
    backbones: tuple[str, ...] = ("llama-12b", "tmoe-25b", "mixtral-8x7b"),
    encoders: tuple[str, ...] = ("vit-1b", "vit-2b"),
    context_lengths: tuple[int, ...] = (4096, 8192, 16384),
    datasets: tuple[str, ...] = ("coyo700m", "navit_data"),
    strategies: tuple[str, ...] = STRATEGIES,
    dp: int = 8,
    n_microbatches: int = 4,
    samples_per_gpu: int = 72,
    pp: int = 4,
    n_steps: int = 3,
    seed: int = 0,
) -> list[E2Cell]:
    """The Fig. 13 sweep (§7.1: per-GPU batch of 72; the §7.2 trainer
    geometry uses PP=4, whose 1F1B bubble the straggler microbatch
    paces). Each (dataset, context length) buffer is built once, as a
    local relation, and planned for all of its (backbone, encoder,
    strategy) cells; cells are returned in (dataset, backbone, encoder,
    context length, strategy) order."""
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError(f"unknown strategy {unknown[0]!r}")
    tree = ClientPlaceTree.from_degrees(dp=dp)
    cells = {}
    for ds in datasets:
        specs = DATASETS[ds]()
        for ctx in context_lengths:
            buffer = build_buffer(
                spark, specs, context_length=ctx, n_steps=n_steps,
                batch_size=samples_per_gpu * dp, seed=seed,
            )
            routing, plan_ids = plan_routings(
                buffer, tree, backbones, encoders, strategies, n_microbatches
            )
            sums = slot_sums(routing).toPandas()
            for (bb, enc, st), plan_id in plan_ids.items():
                s = step_times(
                    sums[sums["plan_id"] == plan_id], BACKBONES[bb], ENCODERS[enc],
                    context_length=ctx, pp=pp,
                ).summary()
                cells[ds, bb, enc, ctx, st] = E2Cell(
                    backbone=bb,
                    encoder=enc,
                    context_length=ctx,
                    dataset=ds,
                    strategy=st,
                    throughput=s["throughput_tokens_per_s"],
                    mean_iter_s=s["mean_iter_s"],
                    tokens=s["tokens"],
                )
    return [
        cells[key]
        for key in product(datasets, backbones, encoders, context_lengths, strategies)
    ]


def speedups(cells: list[E2Cell]) -> list[dict]:
    """Per-configuration speedups over the Vanilla baseline."""
    base = {
        (c.backbone, c.encoder, c.context_length, c.dataset): c.throughput
        for c in cells
        if c.strategy == "vanilla"
    }
    out = []
    for c in cells:
        key = (c.backbone, c.encoder, c.context_length, c.dataset)
        if key not in base or c.strategy == "vanilla":
            continue
        out.append(
            {
                "backbone": c.backbone,
                "encoder": c.encoder,
                "context_length": c.context_length,
                "dataset": c.dataset,
                "strategy": c.strategy,
                "throughput": c.throughput,
                "speedup": c.throughput / base[key],
            }
        )
    return out
