"""Output checks. Each compares the program's output with a computation
made here, apart from the program, or with a property the method must
have. A failed check raises :class:`harness.CheckFailed`."""
from __future__ import annotations

import numpy as np
import pandas as pd

from harness import CheckFailed
from repro.data.sources import SourceSpec, generate_source_rows
from repro.sim.models import GPU_FLOPS, ModelConfig, attention_coeff, linear_coeff

ROW_COLS = ("source_id", "row_idx", "text_len", "image_patches", "sample_bytes")
#: relative tolerance between two float sums of the same terms in another order
FLOAT_RTOL = 1e-9


def step_delivery(assign: pd.DataFrame, batch: int, n_buckets: int, n_mb: int) -> None:
    """The step delivers exactly ``batch`` distinct samples, each to one
    (bucket, microbatch) within range."""
    if len(assign) != batch:
        raise CheckFailed(f"step delivered {len(assign)} samples, want {batch}")
    if assign.duplicated(["source_id", "row_idx"]).any():
        raise CheckFailed("a sample is delivered twice in one step")
    for col, n in (("bucket", n_buckets), ("mb", n_mb)):
        v = assign[col].to_numpy()
        if v.min() < 0 or v.max() >= n:
            raise CheckFailed(f"{col} index out of range [0, {n})")


def staged_equals_plan(staged: pd.DataFrame, assign: pd.DataFrame) -> None:
    """Loaders staged exactly the planned samples."""
    want = sorted(zip(assign["source_id"].tolist(), assign["row_idx"].tolist()))
    got = sorted(zip(staged["source_id"].tolist(), staged["row_idx"].tolist()))
    if got != want:
        raise CheckFailed("staged samples differ from the plan")


def mix_counts(assign: pd.DataFrame, share: np.ndarray, batch: int) -> None:
    """Each source's count lies within one of its weight share x batch."""
    counts = np.bincount(assign["source_id"].to_numpy(), minlength=len(share))
    if len(counts) != len(share) or np.any(np.abs(counts - share * batch) > 1 + 1e-9):
        raise CheckFailed(f"source counts {counts.tolist()} stray from {share * batch}")


def rows_match_source(rows: pd.DataFrame, spec: SourceSpec, seed: int) -> None:
    """Delivered rows of one source are a run of consecutive row indices
    holding exactly what the source generator yields for that range."""
    rows = rows.sort_values("row_idx")
    idx = rows["row_idx"].to_numpy()
    if len(idx) == 0:
        return
    if np.any(np.diff(idx) != 1):
        raise CheckFailed(f"{spec.name}: rows within a step are not consecutive")
    ref = generate_source_rows(spec, int(idx[0]), len(idx), seed=seed)
    for col in ROW_COLS:
        if not np.array_equal(rows[col].to_numpy(np.int64), ref[col].to_numpy(np.int64)):
            raise CheckFailed(f"{spec.name}: column {col} differs from the source")


class PrefixTracker:
    """Per source, the next row index a gap-free, duplicate-free stream
    must deliver."""

    def __init__(self):
        self._next: dict[str, int] = {}

    def observe(self, source: str, row_idx: np.ndarray) -> bool:
        """Record one step's rows of ``source``; False if they do not
        continue the stream exactly (a gap or a repeat)."""
        idx = np.sort(np.asarray(row_idx, dtype=np.int64))
        if len(idx) == 0:
            return True
        ok = idx[0] == self._next.get(source, 0) and bool(np.all(np.diff(idx) == 1))
        self._next[source] = int(idx[-1]) + 1
        return bool(ok)


def packing(built: dict, context_length: int, batch: int) -> None:
    """Every sample lands in one microbatch; packing conserves tokens
    (per microbatch, packed lengths sum to sum(min(fused, ctx))) and no
    sequence is over capacity."""
    n = 0
    for mbs in built.values():
        for mb in mbs:
            rows = mb.sample_rows
            n += len(rows)
            fused = np.minimum(
                rows["text_len"].to_numpy(np.int64) + rows["image_patches"].to_numpy(np.int64),
                context_length,
            )
            items = []
            for seq in mb.sequences:
                if seq.capacity != context_length or sum(seq.lengths) > seq.capacity:
                    raise CheckFailed("a packed sequence is over capacity")
                if any(fused[i] != l for i, l in zip(seq.items, seq.lengths)):
                    raise CheckFailed("a packed length differs from its sample")
                items.extend(seq.items)
            if sorted(items) != list(range(len(rows))):
                raise CheckFailed("packing lost or repeated a sample")
            if sum(seq.used for seq in mb.sequences) != int(fused.sum()):
                raise CheckFailed("packing does not conserve tokens")
    if n != batch:
        raise CheckFailed(f"constructors built {n} samples, want {batch}")


# -- the training-step cost model, evaluated apart from trainsim ---------------


def routing_arrays(df: pd.DataFrame) -> dict[str, np.ndarray]:
    """Routing columns of a plan; a single plan's (bucket, mb) routes both
    the backbone and the encoder."""
    llm = ("llm_bucket", "llm_mb") if "llm_bucket" in df.columns else ("bucket", "mb")
    enc = ("enc_bucket", "enc_mb") if "enc_bucket" in df.columns else llm
    return {
        "step": df["step"].to_numpy(np.int64),
        "llm_bucket": df[llm[0]].to_numpy(np.int64),
        "llm_mb": df[llm[1]].to_numpy(np.int64),
        "enc_bucket": df[enc[0]].to_numpy(np.int64),
        "enc_mb": df[enc[1]].to_numpy(np.int64),
        "text_len": df["text_len"].to_numpy(np.float64),
        "image_patches": df["image_patches"].to_numpy(np.float64),
    }


def simulate(r: dict[str, np.ndarray], backbone: ModelConfig, encoder: ModelConfig,
             pp: int) -> tuple[float, float]:
    """(tokens, seconds) of the routed steps: per microbatch the slowest
    rank's backbone + encoder time, plus a (pp - 1) x slowest-microbatch
    pipeline bubble per step; padding costs nothing."""
    _, step = np.unique(r["step"], return_inverse=True)
    shape = (
        int(step.max()) + 1,
        int(max(r["llm_bucket"].max(), r["enc_bucket"].max())) + 1,
        int(max(r["llm_mb"].max(), r["enc_mb"].max())) + 1,
    )
    fused = r["text_len"] + r["image_patches"]
    p = r["image_patches"]
    llm_at = (step, r["llm_bucket"], r["llm_mb"])
    enc_at = (step, r["enc_bucket"], r["enc_mb"])
    tokens, sq, enc = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    np.add.at(tokens, llm_at, fused)
    np.add.at(sq, llm_at, fused * fused)
    np.add.at(enc, enc_at, linear_coeff(encoder) * p + attention_coeff(encoder) * p * p)
    seconds = (linear_coeff(backbone) * tokens + attention_coeff(backbone) * sq + enc) / GPU_FLOPS
    mb_time = seconds.max(axis=1)
    iteration = mb_time.sum(axis=1) + (pp - 1) * mb_time.max(axis=1)
    return float(tokens.sum()), float(iteration.sum())


def close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def trainsim_matches(throughput: float, tokens: float, routing: pd.DataFrame,
                     buffer_tokens: float, backbone: ModelConfig, encoder: ModelConfig,
                     pp: int) -> None:
    """trainsim's throughput equals this module's evaluation of the cost
    model over the same routing table, and its token total equals the
    buffer's sum of fused lengths."""
    want_tokens, seconds = simulate(routing_arrays(routing), backbone, encoder, pp)
    if not close(tokens, buffer_tokens) or not close(want_tokens, buffer_tokens):
        raise CheckFailed(f"trainsim counted {tokens} tokens, buffer holds {buffer_tokens}")
    if not close(throughput, want_tokens / seconds):
        raise CheckFailed(f"trainsim throughput {throughput} != {want_tokens / seconds}")


def strategy_order(throughput: dict[str, float]) -> None:
    """Hybrid >= Backbone >= Vanilla, as in every E2 cell."""
    if not throughput["hybrid"] >= throughput["backbone"] >= throughput["vanilla"]:
        raise CheckFailed(f"strategy order broken: {throughput}")
