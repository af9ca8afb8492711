"""The workloads of the §3 loading loop.

- ``coyo_stream``: in-process loop over synthetic Source Loaders, no Spark.
  Few sources and a large batch, so planning/balancing and constructor
  packing dominate a step. Two loaders are killed every round and
  recovered, one by shadow promotion and one by checkpoint replay.
- ``e2_column``: the E2 runner on one Fig. 13 column, repeated in one
  Spark session; time goes to the Spark planning data plane.

A workload runs in *rounds*, its unit of identical work: three steps and
two recoveries for ``coyo_stream``, one column for ``e2_column``.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pandas as pd

import checks
from harness import CheckFailed, NullTracer, Record, Tracer
from repro.core import dgraph
from repro.core.checkpoint import CheckpointStore, DifferentialCheckpointer, ShadowLoader
from repro.core.constructor import DataConstructor
from repro.core.dgraph import LoadingPlan
from repro.core.placetree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.primitives import llm_balance, llm_cost_fn, vanilla_plan, vlm_hybrid_balance
from repro.core.source_loader import SourceLoader
from repro.data.mixture import ConstantSchedule
from repro.data.sources import coyo_lite
from repro.experiments.e2_orchestration import DATASETS, STRATEGIES, build_buffer, run_grid
from repro.sim.models import BACKBONES, ENCODERS, sample_backbone_cost
from repro.sim.trainsim import simulate

BACKBONE = BACKBONES["llama-12b"]
ENCODER = ENCODERS["vit-2b"]
#: e2_column's Fig. 13 column: context length and dataset
E2_CONTEXT_LENGTH = 8192
E2_DATASET = "coyo700m"


@contextmanager
def counting_jobs(tracer: Tracer, spark, group: str):
    """Count the Spark jobs started inside the block into ``spark.jobs``."""
    if isinstance(tracer, NullTracer):
        yield
        return
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        yield
    finally:
        tracer.add("spark.jobs", len(sc.statusTracker().getJobIdsForGroup(group)))
        sc.setJobGroup("", "")


def imbalance(text_len: np.ndarray, image_patches: np.ndarray, bucket: np.ndarray,
              n_buckets: int) -> float:
    """max/mean backbone cost over buckets."""
    loads = np.bincount(bucket, weights=sample_backbone_cost(BACKBONE, text_len, image_patches),
                        minlength=n_buckets)
    return float(loads.max() / loads.mean())


# -- coyo_stream -------------------------------------------------------------------


@dataclass(frozen=True)
class LoopConfig:
    mesh: dict[str, int]  # ClientPlaceTree.from_degrees arguments
    samples_per_rank: int
    n_microbatches: int
    context_length: int
    buffered: int  # ensure_buffered target per source; > 2 x a step's rows
    sim_steps: int  # sim_tokens_per_s covers the run's first sim_steps steps
    min_warmup_steps: int
    max_warmup_s: float
    min_timed_steps: int


LOOPS = {
    "full": LoopConfig(dict(pp=4, dp=32, cp=2, tp=4), 72, 4, 8192, buffered=1400,
                       sim_steps=16, min_warmup_steps=6, max_warmup_s=20, min_timed_steps=16),
    "tiny": LoopConfig(dict(pp=2, dp=4, cp=2, tp=2), 8, 2, 2048, buffered=32,
                       sim_steps=3, min_warmup_steps=3, max_warmup_s=10, min_timed_steps=3),
}


class Loop:
    """top-up -> summary -> plan -> prepare -> construct, with shadow
    loaders synced and differential checkpoints taken every step.

    A round is ROUND_STEPS steps, with two loaders killed and recovered
    before the last; loaders checkpoint once per round, at its start."""

    ROUND_STEPS = 3

    def __init__(self, cfg: LoopConfig, seed: int, tracer: Tracer):
        self.cfg, self.seed, self.tracer = cfg, seed, tracer
        self.min_warmup_steps = cfg.min_warmup_steps
        self.max_warmup_s = cfg.max_warmup_s
        self.min_timed_steps = cfg.min_timed_steps
        self.specs = coyo_lite()
        loaders = [SourceLoader(s, seed=seed, buffer_capacity=max(4096, 2 * cfg.buffered))
                   for s in self.specs]
        self.tree = ClientPlaceTree.from_degrees(**cfg.mesh)
        self.broadcast = ("TP",) if self.tree.dims["TP"] > 1 else ()
        self.n_buckets = self.tree.n_buckets("DP")
        self.batch = cfg.samples_per_rank * self.n_buckets
        weights = np.array([s.weight for s in self.specs])
        self.share = weights / weights.sum()
        self.planner = Planner(
            loaders, self.tree, ConstantSchedule(weights), batch_size=self.batch,
            n_microbatches=cfg.n_microbatches, cost_fn=llm_cost_fn(BACKBONE),
            method="karmarkar_karp",
        )
        self.shadows = [ShadowLoader(ld) for ld in loaders]
        self.ckpt = DifferentialCheckpointer(CheckpointStore(), loader_interval=self.ROUND_STEPS)
        self.tracker = checks.PrefixTracker()
        self.recovering: set[str] = set()
        order = np.argsort(-weights, kind="stable")
        # the heaviest sources take part in every step, so the step after a
        # recovery shows whether the recovered stream continues exactly
        self.replay_idx, self.promote_idx = int(order[0]), int(order[1])
        if self.share[self.promote_idx] * self.batch < 1:
            raise ValueError("both killed sources must deliver rows every step")
        self.sim_tokens = self.sim_seconds = 0.0
        self.pp = self.tree.dims["PP"]
        if not isinstance(tracer, NullTracer):
            self._wrap(tracer)

    @staticmethod
    def _wrap(t: Tracer) -> None:
        t.wrap(SourceLoader, "fill", "loader.fill_ms", calls="loader.fill_calls",
               rows="checkpoint.rows_reread")
        t.wrap(Planner, "summary_buffer", "planner.summary_ms")
        t.wrap(Planner, "plan_raw", "planner.plan_ms")
        t.wrap(dgraph, "balance_two_level", "balance.ms")
        t.wrap(Planner, "loader_do_plan", "loader.prepare_ms")
        t.wrap(DataConstructor, "__init__", "constructor.init_ms")
        t.wrap(DataConstructor, "build_microbatches", "constructor.build_ms")
        t.wrap(DataConstructor, "client_payloads", "constructor.payload_ms")
        t.wrap(ShadowLoader, "sync", "checkpoint.sync_ms")
        t.wrap(DifferentialCheckpointer, "on_step", "checkpoint.sync_ms")
        t.wrap(ShadowLoader, "promote", "checkpoint.recover_ms")
        t.wrap(DifferentialCheckpointer, "recover_loader", "checkpoint.recover_ms")

    # -- a round -----------------------------------------------------------------

    def round(self, rec: Record) -> None:
        for i in range(self.ROUND_STEPS):
            if i == self.ROUND_STEPS - 1:
                self.kill_and_recover(rec)
            self.step(rec)

    def step(self, rec: Record) -> None:
        cfg, pl = self.cfg, self.planner
        with self.tracer.bucket("step"):
            t0 = time.perf_counter()
            pl.ensure_buffered(cfg.buffered)
            plan = pl.plan_step()
            staged = pd.concat([ld.pop_staged() for ld in pl.loaders], ignore_index=True)
            loading_plan = LoadingPlan(
                assignments=plan.assignments, tree=self.tree, axis="DP", group_size=None,
                n_buckets=self.n_buckets, n_microbatches=cfg.n_microbatches,
                broadcast_dims=self.broadcast, lineage=(),
            )
            constructors = pl.constructor_do_plan(plan, loading_plan, cfg.context_length)
            built = {b: dc.build_microbatches(plan.assignments) for b, dc in constructors.items()}
            payloads = [dc.client_payloads(mb) for b, dc in constructors.items() for mb in built[b]]
            for sh in self.shadows:
                sh.sync()
            self.ckpt.on_step(plan.step, pl.checkpoint(), pl.loaders)
            seconds = time.perf_counter() - t0
            self._trace_counts(plan.assignments, built, payloads)
        rec.failed += self._check(plan, staged, built)
        rec.step(seconds, plan.n_samples)

    def kill_and_recover(self, rec: Record) -> None:
        """Kill two loaders; promote one's shadow, replay the other from
        its last differential checkpoint."""
        pl = self.planner
        a, b = self.promote_idx, self.replay_idx
        pl.loaders[a].fail()
        pl.loaders[b].fail()
        with self.tracer.bucket("recovery"):
            t0 = time.perf_counter()
            pl.loaders[a] = self.shadows[a].promote()
            rec.recovery(time.perf_counter() - t0)
        with self.tracer.bucket("recovery"):
            t0 = time.perf_counter()
            self.ckpt.recover_loader(pl.loaders[b])
            rec.recovery(time.perf_counter() - t0)
        self.recovering = {self.specs[a].name, self.specs[b].name}

    # -- checks and counts ---------------------------------------------------------

    def _check(self, plan, staged: pd.DataFrame, built: dict) -> int:
        """Check one step; returns the number of recoveries it shows failed."""
        cfg, assign = self.cfg, plan.assignments
        checks.step_delivery(assign, self.batch, self.n_buckets, cfg.n_microbatches)
        checks.mix_counts(assign, self.share, self.batch)
        checks.staged_equals_plan(staged, assign)
        failed = 0
        by_source = dict(tuple(staged.groupby("source")))
        for spec in self.specs:
            rows = by_source.get(spec.name, staged.iloc[0:0])
            checks.rows_match_source(rows, spec, self.seed)
            if self.tracker.observe(spec.name, rows["row_idx"].to_numpy()):
                continue
            if spec.name not in self.recovering:
                raise CheckFailed(f"{spec.name}: a loader never killed broke its row stream")
            failed += 1
        self.recovering.clear()
        checks.packing(built, cfg.context_length, self.batch)
        if plan.step < cfg.sim_steps:
            tokens, seconds = checks.simulate(self._routing(assign), BACKBONE, ENCODER, self.pp)
            self.sim_tokens += tokens
            self.sim_seconds += seconds
        return failed

    def _routing(self, assign: pd.DataFrame) -> dict[str, np.ndarray]:
        """The plan's routing with E2's crop: images to half the context,
        text to the rest."""
        r = checks.routing_arrays(assign)
        ctx = self.cfg.context_length
        r["image_patches"] = np.minimum(r["image_patches"], ctx // 2)
        r["text_len"] = np.minimum(r["text_len"], ctx - r["image_patches"])
        return r

    def _trace_counts(self, assign: pd.DataFrame, built: dict, payloads: list) -> None:
        t = self.tracer
        if isinstance(t, NullTracer):
            return
        t.add("constructor.padding_tokens", sum(mb.padded_tokens for mbs in built.values() for mb in mbs))
        t.add("constructor.client_bytes", sum(p.bytes_transferred for ps in payloads for p in ps.values()))
        t.add("balance.imbalance", imbalance(
            assign["text_len"].to_numpy(), assign["image_patches"].to_numpy(),
            assign["bucket"].to_numpy(), self.n_buckets))

    def finish(self, rec: Record) -> None:
        """Nothing is left to check: a round ends with the step that checks
        its recoveries."""

    def sim_tokens_per_s(self) -> float:
        return self.sim_tokens / self.sim_seconds


# -- e2_column ------------------------------------------------------------------------


@dataclass(frozen=True)
class E2Config:
    dp: int
    samples_per_gpu: int
    n_microbatches: int
    pp: int
    n_steps: int
    min_warmup_steps: int = 2
    max_warmup_s: float = 8
    min_timed_steps: int = 3


E2 = {
    "full": E2Config(dp=8, samples_per_gpu=72, n_microbatches=4, pp=4, n_steps=3),
    # the smallest size tried on which Hybrid >= Backbone >= Vanilla held on
    # all 8 seeds tried; at smaller sizes the strategy order is noise
    "tiny": E2Config(dp=4, samples_per_gpu=16, n_microbatches=2, pp=2, n_steps=1,
                     min_warmup_steps=1, max_warmup_s=5, min_timed_steps=1),
}


class E2Column:
    """``run_grid`` on llama-12b + vit-2b, 8k context, coyo700m, all three
    strategies. A traced round makes ``run_cell``'s calls itself, strategy
    by strategy as ``run_cell`` does (its own buffer, plan and simulation
    each), materialising each lazy stage so that each layer's time is its
    own."""

    def __init__(self, cfg: E2Config, seed: int, tracer: Tracer, spark):
        self.cfg, self.seed, self.tracer, self.spark = cfg, seed, tracer, spark
        self.min_warmup_steps = cfg.min_warmup_steps
        self.max_warmup_s = cfg.max_warmup_s
        self.min_timed_steps = cfg.min_timed_steps
        self.tree = ClientPlaceTree.from_degrees(dp=cfg.dp)
        self.cells: dict[str, tuple[float, float]] | None = None
        self.n_reps = 0
        # the routing tables the column's calls produce, collected once; this
        # first pass over the Spark plan is also the coldest part of warm-up
        buffer = self._buffer().toPandas()
        self.buffer_rows = len(buffer)
        self.buffer_tokens = float((buffer["text_len"] + buffer["image_patches"]).sum())
        self.routing = {s: self._routing(s, self._buffer()).toPandas() for s in STRATEGIES}
        # the plans are the same in every repetition (round checks the
        # throughputs), so the hybrid plan's balance is taken from this pass
        hybrid = self.routing["hybrid"]
        self.hybrid_imbalance = float(np.median([
            imbalance(g["text_len"].to_numpy(), g["image_patches"].to_numpy(),
                      g["llm_bucket"].to_numpy(), cfg.dp)
            for _, g in hybrid.groupby("step")]))

    def _buffer(self):
        c = self.cfg
        return build_buffer(self.spark, DATASETS[E2_DATASET](), context_length=E2_CONTEXT_LENGTH,
                            n_steps=c.n_steps, batch_size=c.samples_per_gpu * c.dp, seed=self.seed)

    def _routing(self, strategy: str, buffer):
        n_mb = self.cfg.n_microbatches
        if strategy == "vanilla":
            return vanilla_plan(buffer, self.tree, n_microbatches=n_mb).assignments
        if strategy == "backbone":
            return llm_balance(buffer, self.tree, BACKBONE, n_microbatches=n_mb).assignments
        return vlm_hybrid_balance(buffer, self.tree, BACKBONE, ENCODER, n_microbatches=n_mb)

    def _column(self) -> dict[str, tuple[float, float]]:
        c = self.cfg
        cells = run_grid(
            self.spark, backbones=(BACKBONE.name,), encoders=(ENCODER.name,),
            context_lengths=(E2_CONTEXT_LENGTH,), datasets=(E2_DATASET,), dp=c.dp,
            n_microbatches=c.n_microbatches, samples_per_gpu=c.samples_per_gpu, pp=c.pp,
            n_steps=c.n_steps, seed=self.seed,
        )
        return {cell.strategy: (cell.throughput, cell.tokens) for cell in cells}

    def _traced_column(self) -> dict[str, tuple[float, float]]:
        c, t, out = self.cfg, self.tracer, {}
        for strategy in STRATEGIES:
            with t.span("data.generate_ms"):
                buffer = self._buffer().cache()
                buffer.count()
            with t.span("primitives.plan_ms"):
                routing = self._routing(strategy, buffer).cache()
                routing.count()
            with t.span("trainsim.simulate_ms"):
                s = simulate(routing, BACKBONE, ENCODER, context_length=E2_CONTEXT_LENGTH,
                             n_ranks=c.dp, n_microbatches=c.n_microbatches, pp=c.pp).summary()
            routing.unpersist()
            buffer.unpersist()
            out[strategy] = (s["throughput_tokens_per_s"], s["tokens"])
        t.add("balance.imbalance", self.hybrid_imbalance)
        return out

    def round(self, rec: Record) -> None:
        traced = not isinstance(self.tracer, NullTracer)
        with self.tracer.bucket("step"), counting_jobs(self.tracer, self.spark, f"r{self.n_reps}"):
            t0 = time.perf_counter()
            cells = self._traced_column() if traced else self._column()
            seconds = time.perf_counter() - t0
        self.n_reps += 1
        if self.cells is None:
            self.cells = cells
        elif any(not checks.close(cells[s][0], self.cells[s][0]) for s in STRATEGIES):
            raise CheckFailed("a repetition of the column gave another throughput")
        rec.step(seconds, 0)

    def finish(self, rec: Record) -> None:
        """Check the column against the cost model evaluated here, over the
        routing tables the same calls produce."""
        for strategy in STRATEGIES:
            throughput, tokens = self.cells[strategy]
            checks.trainsim_matches(throughput, tokens, self.routing[strategy],
                                    self.buffer_tokens, BACKBONE, ENCODER, self.cfg.pp)
        checks.strategy_order({s: self.cells[s][0] for s in STRATEGIES})
        rec.samples = len(rec.step_s) * len(STRATEGIES) * self.buffer_rows

    def sim_tokens_per_s(self) -> float:
        return self.cells["hybrid"][0]


def build(name: str, size: str, seed: int, tracer: Tracer, spark):
    if name == "e2_column":
        return E2Column(E2[size], seed, tracer, spark)
    return Loop(LOOPS[size], seed, tracer)


def needs_spark(name: str) -> bool:
    return name != "coyo_stream"
