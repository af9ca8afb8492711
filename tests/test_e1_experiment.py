"""E1 shape tests (Fig. 12): memory reductions and feed stability."""
import pytest

from repro.experiments.e1_preprocessing import reduction_factors, run_config


@pytest.fixture(scope="module")
def rows288():
    return run_config(n_gpus=288, dataset="navit-100", n_iters=30)


@pytest.fixture(scope="module")
def rows576():
    return run_config(n_gpus=576, dataset="navit-100", n_iters=30)


def _by_system(rows):
    return {r.system: r for r in rows}


class TestMemory:
    def test_colocated_dominates(self, rows288, rows576):
        for rows in (rows288, rows576):
            by = _by_system(rows)
            assert by["colocated"].mem_per_node_gb > by["overlord-vanilla"].mem_per_node_gb
            assert by["colocated"].mem_per_node_gb > by["overlord-auto"].mem_per_node_gb

    def test_reduction_factor_substantial(self, rows288, rows576):
        red = reduction_factors(rows288 + rows576)
        # paper: up to 13.5x; our model reaches >= 4x at 288 and more at 576
        assert red[(288, "navit-100")] > 4.0
        assert red[(576, "navit-100")] > red[(288, "navit-100")]

    def test_auto_heavier_than_vanilla_at_288(self, rows288):
        # §7.2: auto-source partition needs more running actors, so it
        # outperforms Vanilla only at large scale
        by = _by_system(rows288)
        assert by["overlord-auto"].mem_per_node_gb > by["overlord-vanilla"].mem_per_node_gb


class TestFeeding:
    def test_all_feed_at_288(self, rows288):
        by = _by_system(rows288)
        assert by["colocated"].feeds_ok
        assert by["overlord-vanilla"].feeds_ok
        assert by["overlord-auto"].feeds_ok

    def test_colocated_fluctuates_at_576(self, rows576):
        assert not _by_system(rows576)["colocated"].feeds_ok

    def test_vanilla_fails_to_feed_at_576(self, rows576):
        # the paper: "OVERLORD-Vanilla failed to continuously feed the data"
        assert not _by_system(rows576)["overlord-vanilla"].feeds_ok

    def test_auto_stable_everywhere(self, rows288, rows576):
        for rows in (rows288, rows576):
            r = _by_system(rows)["overlord-auto"]
            assert r.feeds_ok
            assert r.fetch_mean_s < 1.0  # fully overlappable

    def test_auto_fetch_flatter_than_colocated(self, rows576):
        by = _by_system(rows576)
        assert by["overlord-auto"].fetch_std_s < by["colocated"].fetch_std_s


class TestValidation:
    def test_unknown_gpu_count(self):
        with pytest.raises(ValueError):
            run_config(n_gpus=128, dataset="navit-100")

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            run_config(n_gpus=288, dataset="imagenet")
