"""Each output check accepts the program's real output and rejects a
planted fault."""
import numpy as np
import pandas as pd
import pytest

import checks
import workloads
from harness import CheckFailed, NullTracer, Record
from repro.core.balance import PackedSequence
from repro.core.constructor import Microbatch
from repro.core.source_loader import SourceLoader
from repro.data.sources import coyo_lite, generate_source_rows
from repro.sim.models import BACKBONES, ENCODERS, GPU_FLOPS, attention_coeff, linear_coeff

TINY = workloads.LOOPS["tiny"]


def tiny_loop() -> workloads.Loop:
    return workloads.Loop(TINY, seed=3, tracer=NullTracer())


def one_step(loop):
    """Run one step and return the plan's assignments and the built
    microbatches, as the loop's own checks see them."""
    seen = {}
    check = loop._check

    def spy(plan, staged, built):
        seen.update(assign=plan.assignments, staged=staged, built=built)
        return check(plan, staged, built)

    loop._check = spy
    loop.step(Record())
    return seen


def test_real_steps_pass():
    loop = tiny_loop()
    rec = Record()
    for _ in range(4):
        loop.step(rec)
    assert rec.attempted == 4 and rec.failed == 0


def test_duplicated_sample_rejected(monkeypatch):
    loop = tiny_loop()
    original = loop.planner.plan_step

    def plan_with_duplicate():
        plan = original()
        a = plan.assignments
        a.iloc[-1] = a.iloc[0]
        return plan

    monkeypatch.setattr(loop.planner, "plan_step", plan_with_duplicate)
    with pytest.raises(CheckFailed):
        loop.step(Record())


def test_dropped_row_rejected(monkeypatch):
    """A loader that loses a row from its buffer breaks its stream."""
    loop = tiny_loop()
    loop.step(Record())
    fill = SourceLoader.fill

    def lossy_fill(self, n):
        got = fill(self, n)
        if self.spec.source_id == 0 and len(self._buffer):
            self._buffer = self._buffer.iloc[1:].reset_index(drop=True)
        return got

    monkeypatch.setattr(SourceLoader, "fill", lossy_fill)
    with pytest.raises(CheckFailed, match="never killed"):
        loop.step(Record())


def test_gap_and_repeat_in_tracker():
    t = checks.PrefixTracker()
    assert t.observe("s", np.arange(0, 5))
    assert not t.observe("s", np.arange(6, 9))  # gap: row 5 never delivered
    assert not t.observe("s", np.arange(8, 10))  # repeat: row 8 again
    assert not t.observe("s", np.array([10, 10]))


def test_rows_differing_from_source_rejected():
    spec = coyo_lite()[0]
    rows = generate_source_rows(spec, 5, 6, seed=2)
    checks.rows_match_source(rows, spec, seed=2)
    bad = rows.copy()
    bad.loc[2, "text_len"] += 1
    with pytest.raises(CheckFailed):
        checks.rows_match_source(bad, spec, seed=2)
    with pytest.raises(CheckFailed):
        checks.rows_match_source(rows.drop(index=3), spec, seed=2)


def test_mix_count_off_by_two_rejected():
    share = np.array([0.5, 0.5])
    ok = pd.DataFrame({"source_id": [0] * 5 + [1] * 5})
    checks.mix_counts(ok, share, 10)
    with pytest.raises(CheckFailed):
        checks.mix_counts(pd.DataFrame({"source_id": [0] * 7 + [1] * 3}), share, 10)


def test_overfull_sequence_rejected():
    loop = tiny_loop()
    seen = one_step(loop)
    built, ctx = seen["built"], TINY.context_length
    checks.packing(built, ctx, loop.batch)
    mb = next(m for mbs in built.values() for m in mbs if m.n_sequences >= 2)
    a, b = mb.sequences[0], mb.sequences[1]
    merged = PackedSequence(a.items + b.items, a.lengths + b.lengths, ctx)
    assert merged.used > ctx
    bad = dict(built)
    bucket = next(k for k, mbs in built.items() if mb in mbs)
    bad[bucket] = [
        Microbatch(m.index, (merged, *m.sequences[2:]), m.sample_rows) if m is mb else m
        for m in built[bucket]
    ]
    with pytest.raises(CheckFailed, match="over capacity"):
        checks.packing(bad, ctx, loop.batch)


def test_lost_token_rejected():
    loop = tiny_loop()
    built = one_step(loop)["built"]
    mbs = next(v for v in built.values() if v[0].n_sequences)
    m = mbs[0]
    s = m.sequences[0]
    short = PackedSequence(s.items, (s.lengths[0] - 1, *s.lengths[1:]), s.capacity)
    bad = dict(built)
    key = next(k for k, v in built.items() if v is mbs)
    bad[key] = [Microbatch(m.index, (short, *m.sequences[1:]), m.sample_rows), *mbs[1:]]
    with pytest.raises(CheckFailed):
        checks.packing(bad, TINY.context_length, loop.batch)


# -- the cost model --------------------------------------------------------------


BB, ENC = BACKBONES["llama-12b"], ENCODERS["vit-2b"]


def two_sample_routing() -> pd.DataFrame:
    return pd.DataFrame({
        "step": [0, 0], "bucket": [0, 1], "mb": [0, 0],
        "text_len": [10, 20], "image_patches": [0, 4],
    })


def hand_throughput() -> float:
    """Two ranks, one microbatch, pp=2: time = 2 x slowest rank."""
    rank0 = linear_coeff(BB) * 10 + attention_coeff(BB) * 100
    rank1 = (linear_coeff(BB) * 24 + attention_coeff(BB) * 576
             + linear_coeff(ENC) * 4 + attention_coeff(ENC) * 16)
    return 34 / (2 * max(rank0, rank1) / GPU_FLOPS)


def test_simulate_matches_hand_computation():
    tokens, seconds = checks.simulate(checks.routing_arrays(two_sample_routing()), BB, ENC, pp=2)
    assert tokens == 34
    assert tokens / seconds == pytest.approx(hand_throughput(), rel=1e-12)


def test_perturbed_throughput_rejected():
    routing = two_sample_routing()
    good = hand_throughput()
    checks.trainsim_matches(good, 34.0, routing, 34.0, BB, ENC, pp=2)
    with pytest.raises(CheckFailed, match="throughput"):
        checks.trainsim_matches(good * (1 + 1e-6), 34.0, routing, 34.0, BB, ENC, pp=2)
    with pytest.raises(CheckFailed, match="tokens"):
        checks.trainsim_matches(good, 33.0, routing, 34.0, BB, ENC, pp=2)


def test_strategy_order_rejected():
    checks.strategy_order({"vanilla": 1.0, "backbone": 2.0, "hybrid": 2.0})
    with pytest.raises(CheckFailed):
        checks.strategy_order({"vanilla": 2.0, "backbone": 1.0, "hybrid": 3.0})


# -- recoveries ------------------------------------------------------------------


def test_replay_recovery_counts_as_failed():
    """Shadow promotion keeps the stream whole; checkpoint replay loses the
    rows buffered at checkpoint time, so each round has one failed op."""
    loop = tiny_loop()
    rec = Record()
    loop.round(rec)
    loop.round(rec)
    assert rec.attempted == 10
    assert rec.failed == 2
