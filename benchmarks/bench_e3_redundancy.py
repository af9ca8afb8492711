"""E3 benchmark (Fig. 14): the CP x PP memory-cost-ratio grid."""
from repro.experiments.e3_redundancy import run_grid


def test_e3_ratio_grid(benchmark):
    cells = benchmark.pedantic(
        run_grid, kwargs=dict(cps=(1, 2, 4, 8), pps=(1, 2, 4, 8)),
        rounds=3, iterations=1,
    )
    by = {(c.cp, c.pp): c.ratio for c in cells}
    assert by[(1, 1)] > 0.9
    assert by[(8, 8)] < by[(2, 2)] < by[(1, 1)]
