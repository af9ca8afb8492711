"""E1 benchmark (Fig. 12): preprocessing-architecture memory + feed
comparison for one (288-GPU, navit-100) panel."""
import pytest

from repro.experiments.e1_preprocessing import reduction_factors, run_config


def test_e1_preprocessing_arch(benchmark):
    rows = benchmark.pedantic(
        run_config,
        kwargs=dict(n_gpus=288, dataset="navit-100", n_iters=100),
        rounds=3,
        iterations=1,
    )
    red = reduction_factors(rows)
    assert red[(288, "navit-100")] > 4.0
    by = {r.system: r for r in rows}
    assert by["overlord-auto"].feeds_ok
