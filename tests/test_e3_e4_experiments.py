"""E3 (Fig. 14/17) and E4 (Fig. 15) shape tests."""
import pytest

from repro.experiments.e3_redundancy import run_cell, run_grid
from repro.experiments.e4_source import measure, run_grid as e4_grid
from repro.data.sources import navit_100, navit_lite


class TestE3Grid:
    def test_marginal_overhead_at_low_parallelism(self):
        c = run_cell(cp=1, pp=1)
        assert 0.9 < c.ratio < 1.4  # constructor buffering overhead

    def test_savings_grow_with_cp_pp(self):
        r11 = run_cell(cp=1, pp=1).ratio
        r22 = run_cell(cp=2, pp=2).ratio
        r44 = run_cell(cp=4, pp=4).ratio
        assert r44 < r22 < r11
        assert r44 < 0.15

    def test_cp_and_pp_symmetric_effect(self):
        r_cp = run_cell(cp=4, pp=1).ratio
        r_pp = run_cell(cp=1, pp=4).ratio
        assert r_cp == pytest.approx(r_pp, rel=0.05)

    def test_grid_covers_all_cells(self):
        cells = run_grid(cps=(1, 2), pps=(1, 2))
        assert len(cells) == 4


class TestE3Ablations:
    def test_bigger_batch_raises_ratio(self):
        # Fig. 17b: constructor buffers scale with data size
        small = run_cell(cp=2, pp=2, group_batch=512).ratio
        big = run_cell(cp=2, pp=2, group_batch=2048).ratio
        assert big > small

    def test_more_workers_lower_ratio(self):
        # Fig. 17a: worker replication grows on the colocated side
        w4 = run_cell(cp=2, pp=2, workers=4).ratio
        w16 = run_cell(cp=2, pp=2, workers=16).ratio
        assert w16 < w4

    def test_larger_cluster_no_help_at_low_parallelism(self):
        # Fig. 17c: more nodes at CP=PP=1 → bigger effective DP → more
        # constructors alongside the redundancy-free baseline; under
        # weak scaling the ratio stays ~flat (it does not improve)
        small = run_cell(cp=1, pp=1, n_nodes=512).ratio
        big = run_cell(cp=1, pp=1, n_nodes=4096).ratio
        assert big >= small - 0.02
        assert big > 0.95

    def test_larger_cluster_fine_at_high_parallelism(self):
        big = run_cell(cp=4, pp=4, n_nodes=4096).ratio
        assert big < 0.2


class TestE4:
    def test_navit_data_heavier_than_navit_100(self):
        m100 = measure(navit_100(), workers=2, sp=1).total_mem_gb
        m306 = measure(navit_lite(), workers=2, sp=1).total_mem_gb
        assert m306 > m100

    def test_sp2_reduces_memory(self):
        full = measure(navit_lite(), workers=2, sp=1).total_mem_gb
        part = measure(navit_lite(), workers=2, sp=2).total_mem_gb
        assert part < full * 0.6  # ~halved

    def test_memory_grows_with_workers(self):
        mems = [measure(navit_100(), workers=w, sp=1).total_mem_gb for w in (1, 2, 4, 8)]
        assert mems == sorted(mems)

    def test_grid_shape(self):
        rows = e4_grid(worker_counts=(1, 2), sps=(1, 2))
        assert len(rows) == 8
        assert {r.dataset for r in rows} == {"navit-100", "navit_data"}

    def test_invalid_sp(self):
        with pytest.raises(ValueError):
            measure(navit_100(), workers=1, sp=0)
