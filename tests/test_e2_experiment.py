"""E2 shape tests (Fig. 13): balancing wins, gains grow with context."""
import pandas as pd
import pytest

from repro.core.placetree import ClientPlaceTree
from repro.core.primitives import llm_balance, vanilla_plan, vlm_hybrid_balance
from repro.data.sources import coyo_lite
from repro.experiments.e2_orchestration import (
    E2Cell,
    build_buffer,
    plan_routings,
    run_cell,
    run_grid,
    speedups,
)
from repro.sim.models import BACKBONES, ENCODERS
from repro.sim.trainsim import ROUTING_COLS, normalize_routing, slot_sums

FAST = dict(dp=4, n_microbatches=4, samples_per_gpu=48, n_steps=2)


@pytest.fixture(scope="module")
def coyo_cells(spark):
    """llama-12b + vit-2b on coyo at 4k/16k, all strategies."""
    cells = []
    for ctx in (4096, 16384):
        for st in ("vanilla", "backbone", "hybrid"):
            cells.append(
                run_cell(
                    spark,
                    backbone="llama-12b",
                    encoder="vit-2b",
                    context_length=ctx,
                    dataset="coyo700m",
                    strategy=st,
                    **FAST,
                )
            )
    return cells


def _tput(cells, ctx, st):
    return next(
        c.throughput
        for c in cells
        if c.context_length == ctx and c.strategy == st
    )


class TestOrdering:
    def test_backbone_beats_vanilla(self, coyo_cells):
        for ctx in (4096, 16384):
            assert _tput(coyo_cells, ctx, "backbone") > _tput(coyo_cells, ctx, "vanilla")

    def test_hybrid_at_least_backbone(self, coyo_cells):
        for ctx in (4096, 16384):
            assert _tput(coyo_cells, ctx, "hybrid") >= _tput(
                coyo_cells, ctx, "backbone"
            ) * 0.98

    def test_gains_grow_with_context(self, coyo_cells):
        s4 = _tput(coyo_cells, 4096, "hybrid") / _tput(coyo_cells, 4096, "vanilla")
        s16 = _tput(coyo_cells, 16384, "hybrid") / _tput(coyo_cells, 16384, "vanilla")
        assert s16 > s4 > 1.0

    def test_tokens_conserved(self, coyo_cells):
        for ctx in (4096, 16384):
            toks = {c.strategy: c.tokens for c in coyo_cells if c.context_length == ctx}
            assert toks["vanilla"] == pytest.approx(toks["backbone"])
            assert toks["vanilla"] == pytest.approx(toks["hybrid"])


class TestGridAndSpeedups:
    def test_speedups_helper(self, coyo_cells):
        sp = speedups(coyo_cells)
        assert len(sp) == 4  # 2 ctx x 2 non-vanilla strategies
        assert all(r["speedup"] > 1.0 for r in sp)

    def test_small_grid_runs(self, spark):
        cells = run_grid(
            spark,
            backbones=("tmoe-25b",),
            encoders=("vit-1b",),
            context_lengths=(8192,),
            datasets=("coyo700m",),
            **FAST,
        )
        assert len(cells) == 3
        assert {c.strategy for c in cells} == {"vanilla", "backbone", "hybrid"}

    def test_moe_backbone_gains(self, spark):
        """tMoE's small hidden size gives attention a larger share, so
        balancing pays off there too."""
        cells = run_grid(
            spark,
            backbones=("tmoe-25b",),
            encoders=("vit-1b",),
            context_lengths=(16384,),
            datasets=("coyo700m",),
            **FAST,
        )
        sp = speedups(cells)
        assert all(r["speedup"] > 1.1 for r in sp)

    def test_grid_equals_cells(self, spark, coyo_cells):
        """One shared buffer per (dataset, context) gives the cells that
        separate run_cell calls give."""
        cells = run_grid(
            spark,
            backbones=("llama-12b",),
            encoders=("vit-2b",),
            context_lengths=(4096, 16384),
            datasets=("coyo700m",),
            **FAST,
        )
        assert cells == coyo_cells

    def test_unknown_strategy(self, spark):
        sc = spark.sparkContext
        sc.setJobGroup("unknown-strategy", "unknown-strategy")
        try:
            with pytest.raises(ValueError):
                run_cell(
                    spark,
                    backbone="llama-12b",
                    encoder="vit-1b",
                    context_length=4096,
                    dataset="coyo700m",
                    strategy="zigzag",
                    **FAST,
                )
        finally:
            sc.setJobGroup("", "")
        # rejected before any Spark work
        assert len(sc.statusTracker().getJobIdsForGroup("unknown-strategy")) == 0


class TestPinned:
    def test_column_values_pinned(self, spark):
        """The (llama-12b, vit-2b, 8k, coyo700m) column at the default
        Fig. 13 geometry keeps the values it had when the buffer was
        generated by a distributed fan-out, cached, and each routing
        table aggregated twice and joined."""
        cells = run_grid(
            spark,
            backbones=("llama-12b",),
            encoders=("vit-2b",),
            context_lengths=(8192,),
            datasets=("coyo700m",),
        )
        pinned = {
            "vanilla": (2063.7655900408186, 226.614238033408),
            "backbone": (3263.9483357358904, 143.286173235712),
            "hybrid": (3272.9879068698992, 142.890435276288),
        }
        for c in cells:
            throughput, mean_iter_s = pinned[c.strategy]
            assert c.throughput == pytest.approx(throughput, rel=1e-12)
            assert c.mean_iter_s == pytest.approx(mean_iter_s, rel=1e-12)
            assert c.tokens == 1403036.0


class TestOnePass:
    """Each (dataset, context) buffer is planned for all of its cells in
    one pass and simulated from one aggregation."""

    GRID = dict(
        backbones=("llama-12b", "tmoe-25b"),
        encoders=("vit-1b", "vit-2b"),
        context_lengths=(8192,),
        datasets=("coyo700m",),
        **FAST,
    )

    @pytest.fixture(scope="class")
    def planned(self, spark):
        buffer = build_buffer(
            spark, coyo_lite(), context_length=8192, n_steps=2, batch_size=4 * 48
        )
        tree = ClientPlaceTree.from_degrees(dp=4)
        g = self.GRID
        routing, plan_ids = plan_routings(
            buffer, tree, g["backbones"], g["encoders"], ("vanilla", "backbone", "hybrid"), 4
        )
        return buffer, tree, routing, plan_ids

    def test_distinct_plans_only(self, planned):
        """Vanilla once, backbone once per backbone, hybrid once per
        (backbone, encoder): 1 + 2 + 4 plans for 12 cells."""
        _, _, routing, plan_ids = planned
        assert len(plan_ids) == 12
        assert sorted(set(plan_ids.values())) == list(range(7))
        assert len({plan_ids[bb, enc, "vanilla"] for bb, enc, _ in plan_ids}) == 1
        for bb in self.GRID["backbones"]:
            assert plan_ids[bb, "vit-1b", "backbone"] == plan_ids[bb, "vit-2b", "backbone"]
        assert {r.plan_id for r in routing.select("plan_id").distinct().collect()} == set(
            range(7)
        )

    def test_plans_match_strategies(self, planned):
        """Each plan's rows are the routing table its strategy function
        plans over the same buffer."""
        buffer, tree, routing, plan_ids = planned
        got = routing.toPandas()
        cols = list(ROUTING_COLS)
        for (bb, enc, st), plan_id in plan_ids.items():
            if st == "vanilla":
                want = vanilla_plan(buffer, tree, n_microbatches=4).assignments
            elif st == "backbone":
                want = llm_balance(buffer, tree, BACKBONES[bb], n_microbatches=4).assignments
            else:
                want = vlm_hybrid_balance(
                    buffer, tree, BACKBONES[bb], ENCODERS[enc], n_microbatches=4
                )
            pd.testing.assert_frame_equal(
                got[got["plan_id"] == plan_id][cols].sort_values(cols).reset_index(drop=True),
                normalize_routing(want).toPandas()[cols].sort_values(cols).reset_index(drop=True),
            )

    def test_one_planning_pass_no_join(self, planned):
        plan = slot_sums(planned[2])._jdf.queryExecution().executedPlan().toString()
        assert plan.count("FlatMapGroupsInPandas") == 1
        assert "Join" not in plan

    def test_three_jobs_per_column(self, spark):
        """Planning, aggregation and the collect of one buffer's sums:
        one E2 column (3 cells) runs 3 Spark jobs."""
        sc = spark.sparkContext
        sc.setJobGroup("e2-column", "e2-column")
        try:
            run_grid(
                spark,
                backbones=("llama-12b",),
                encoders=("vit-2b",),
                context_lengths=(8192,),
                datasets=("coyo700m",),
                **FAST,
            )
        finally:
            sc.setJobGroup("", "")
        assert len(sc.statusTracker().getJobIdsForGroup("e2-column")) == 3

    def test_cells_independent_of_shuffle_partitions(self, spark):
        """Integer sums are exact, so the cells do not depend on how
        Spark partitions the aggregation."""
        key = "spark.sql.shuffle.partitions"
        old = spark.conf.get(key)
        try:
            spark.conf.set(key, "1")
            one = run_grid(spark, **self.GRID)
            spark.conf.set(key, "8")
            eight = run_grid(spark, **self.GRID)
        finally:
            spark.conf.set(key, old)
        assert one == eight


class TestNavit:
    def test_navit_also_gains(self, spark):
        cells = []
        for st in ("vanilla", "hybrid"):
            cells.append(
                run_cell(
                    spark,
                    backbone="llama-12b",
                    encoder="vit-1b",
                    context_length=16384,
                    dataset="navit_data",
                    strategy=st,
                    **FAST,
                )
            )
        assert cells[1].throughput / cells[0].throughput > 1.1
