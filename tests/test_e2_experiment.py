"""E2 shape tests (Fig. 13): balancing wins, gains grow with context."""
import pytest

from repro.experiments.e2_orchestration import E2Cell, run_cell, run_grid, speedups

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
