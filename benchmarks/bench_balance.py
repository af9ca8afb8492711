"""Micro-benchmarks for the balancing/packing algorithms the Planner
runs on every step (they sit on the plan-generation critical path)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.balance import (
    balance_two_level,
    greedy_binpack,
    karmarkar_karp,
    pack_sequences,
)
from repro.core.primitives import llm_cost_fn
from repro.data.sources import coyo_lite, generate_source_rows
from repro.sim.models import BACKBONES


def coyo_costs(n: int) -> np.ndarray:
    """Backbone costs of ``coyo_stream``'s samples: ``coyo_lite`` rows
    through ``llm_cost_fn(llama-12b)``, the sources interleaved."""
    specs = coyo_lite()
    per = -(-n // len(specs))
    rows = [generate_source_rows(s, 0, per, seed=1) for s in specs]
    mixed = pd.concat(rows).sort_values("row_idx", kind="stable").iloc[:n]
    return llm_cost_fn(BACKBONES["llama-12b"])(mixed)


@pytest.fixture(scope="module")
def heavy_costs():
    return np.random.default_rng(0).pareto(1.2, 10_000) + 1


def test_greedy_binpack_10k(benchmark, heavy_costs):
    assign = benchmark(greedy_binpack, heavy_costs, 32)
    assert len(assign) == 10_000


def test_karmarkar_karp_10k(benchmark, heavy_costs):
    assign = benchmark(karmarkar_karp, heavy_costs, 32)
    assert len(assign) == 10_000


@pytest.mark.parametrize(
    "n_items, n_bins",
    [(16_384, 128), (41_472, 32)],  # 41,472 = one step on the 576-GPU mesh
)
def test_karmarkar_karp_large(benchmark, n_items, n_bins):
    costs = np.random.default_rng(2).pareto(1.2, n_items) + 1
    assign = benchmark.pedantic(karmarkar_karp, args=(costs, n_bins), rounds=3)
    assert len(assign) == n_items


def test_two_level_balance_coyo_step(benchmark):
    # perfbench coyo_stream's step: 2304 coyo samples, 32 DP buckets, 4 microbatches
    bucket, bins = benchmark(balance_two_level, coyo_costs(2304), 32, 4)
    assert bucket.max() < 32 and bins.max() < 4


def test_two_level_balance_pareto_2304(benchmark):
    # coyo_stream's shape over pareto(1.2) + 1 costs
    costs = np.random.default_rng(3).pareto(1.2, 2304) + 1
    bucket, bins = benchmark(balance_two_level, costs, 32, 4)
    assert bucket.max() < 32 and bins.max() < 4


def test_two_level_balance_step(benchmark, heavy_costs):
    bucket, bins = benchmark(
        balance_two_level, heavy_costs[:4096], 18, 4, method="karmarkar_karp"
    )
    assert bucket.max() < 18 and bins.max() < 4


def test_pack_sequences_4k(benchmark):
    lengths = np.random.default_rng(1).integers(1, 4096, 4096)
    seqs = benchmark(pack_sequences, lengths, 8192)
    assert sum(len(s.items) for s in seqs) == 4096
