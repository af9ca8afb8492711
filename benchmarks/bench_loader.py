"""Micro-benchmark of the Source Loader layer at perfbench ``coyo_stream``'s
size: one top-up -> ``summary_buffer`` -> ``prepare`` -> ``pop_staged``
round over 5 coyo sources, each topped up to 1400 buffered rows, with
2304 rows planned per step. Planning itself is left out, so the number is
the loader layer's alone."""
from repro.core.placetree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.source_loader import SourceLoader
from repro.data.mixture import ConstantSchedule
from repro.data.sources import coyo_lite

BATCH = 2304  # 72 samples per rank x 32 DP buckets
TOP_UP = 1400


def test_loader_round_coyo_stream(benchmark):
    specs = coyo_lite()
    loaders = [SourceLoader(s, seed=1, buffer_capacity=2 * TOP_UP) for s in specs]
    schedule = ConstantSchedule([s.weight for s in specs])
    pl = Planner(loaders, ClientPlaceTree.from_degrees(dp=32), schedule,
                 batch_size=BATCH, method=None)
    quotas = schedule.sample_counts(0, BATCH)

    def one_round():
        pl.ensure_buffered(TOP_UP)
        summary = pl.summary_buffer()
        for ld, q in zip(loaders, quotas):
            ld.prepare(ld.buffer["row_idx"][:q])
        return summary, [ld.pop_staged() for ld in loaders]

    summary, staged = benchmark(one_round)
    assert len(summary) == len(specs) * TOP_UP
    assert sum(len(s) for s in staged) == BATCH
