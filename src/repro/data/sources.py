"""Synthetic multisource LFM datasets (coyo-lite / navit-lite).

The paper evaluates on two dataset groups (Fig. 2): ``coyo700m`` (5
sources, 16x16 image patches, very short text) and ``navit_data`` (306
sources, variable-resolution 14x14 patches). Neither is available here,
so this module generates seed-deterministic synthetic equivalents whose
*skew* matches the reported statistics:

- Text tokens: a two-component mixture — with probability ``p_short`` a
  short uniform body (coyo: 98.23 % of samples <= 64 tokens) and
  otherwise a Pareto tail (the top 1.62 % of coyo samples hold 9.3 % of
  tokens).
- Image patches: both groups draw variable-resolution images with a
  heavy-tailed (Pareto) patch count — coyo around a 256-patch mode,
  navit around a per-source mode.
- Per-source heterogeneity: each source carries its own transformation
  latency and file-access-state memory, drawn from lognormals matching
  the CDF shapes of Fig. 5 (latency spanning ~1 ms to ~10 s, file state
  spanning ~10 MB to ~2 GB).

Every row is a counter-based hash of (seed, source, row index), so a
range of rows is the same whoever generates it and in whatever pieces —
a requirement for the DuckDB oracle and for Source Loaders that re-read
ranges after failures. One generator, :func:`source_columns`, backs
Source Loader reads, the Parquet sources, and the small Spark
buffers E2 plans over (a local relation: the buffers are a few thousand
rows, so Spark's work starts at planning, not at generation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

# ---------------------------------------------------------------------------
# Deterministic counter-based randomness (splitmix64) — partition-invariant.
# ---------------------------------------------------------------------------

_U64 = np.uint64


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finalizer over uint64 — a high-quality hash."""
    x = x.astype(_U64, copy=True)
    with np.errstate(over="ignore"):
        x += _U64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        z = z ^ (z >> _U64(31))
    return z


def hash_uniform(seed: int, stream: int, idx: np.ndarray) -> np.ndarray:
    """Uniform(0,1) keyed by (seed, stream, idx) — identical on any worker."""
    with np.errstate(over="ignore"):
        key = (
            _U64(seed & 0xFFFFFFFFFFFFFFFF) * _U64(0x9E3779B97F4A7C15)
            + _U64(stream & 0xFFFFFFFFFFFFFFFF) * _U64(0xC2B2AE3D27D4EB4F)
        )
        h = _splitmix64(idx.astype(_U64) + key)
    # 53-bit mantissa -> float64 in [0, 1); nudge off exact 0 for log().
    u = (h >> _U64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return np.maximum(u, 1e-16)


def _pareto_from_u(u: np.ndarray, x_min: float, alpha: float) -> np.ndarray:
    """Inverse-CDF Pareto sample: heavy tail without scipy."""
    return x_min * u ** (-1.0 / alpha)


# ---------------------------------------------------------------------------
# Source specifications.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """Static description of one data source in a mixture.

    ``transform_cost_s`` is the per-sample CPU transformation latency and
    ``file_state_gb`` the per-(worker, source) file-access-state memory —
    the two per-source quantities Fig. 5 characterises.
    """

    name: str
    source_id: int
    weight: float  # default mixture sampling weight (unnormalised)
    p_short: float  # probability of the short-text component
    short_max: int  # max tokens of the short component
    tail_alpha: float  # Pareto tail index for long text
    tail_min: int  # tail component minimum tokens
    img_patch_mode: int  # typical patches per image
    img_tail_alpha: float  # Pareto tail index for patch counts
    transform_cost_s: float
    file_state_gb: float


def _source_heterogeneity(g: np.random.Generator) -> tuple[float, float]:
    """Per-source (latency s, file-state GB) drawn to match Fig. 5 CDFs."""
    cost = float(np.exp(g.normal(math.log(0.05), 1.6)))  # ~1 ms .. ~10 s
    cost = float(np.clip(cost, 1e-3, 12.0))
    mem = float(np.exp(g.normal(math.log(0.12), 1.0)))  # ~10 MB .. ~2 GB
    mem = float(np.clip(mem, 0.01, 2.0))
    return cost, mem


def coyo_lite(n_sources: int = 5, seed: int = 11) -> list[SourceSpec]:
    """5-source group mirroring coyo700m: very short text (98.23 % of
    samples <= 64 tokens, the top 1.62 % holding 9.3 % of tokens) paired
    with variable-resolution images whose 16x16-patch counts are heavily
    skewed — Fig. 2 shows *both* coyo distributions as skewed, and the
    image-side skew is what makes coyo's balancing gains the largest."""
    g = np.random.default_rng(seed)
    specs = []
    for i in range(n_sources):
        cost, mem = _source_heterogeneity(g)
        specs.append(
            SourceSpec(
                name=f"coyo_{i:03d}",
                source_id=i,
                weight=float(g.uniform(0.5, 2.0)),
                p_short=0.9823,
                short_max=64,
                tail_alpha=float(g.uniform(1.05, 1.4)),
                tail_min=64,
                img_patch_mode=256,  # 16x16 grid at the modal resolution
                img_tail_alpha=float(g.uniform(1.15, 1.35)),
                transform_cost_s=cost,
                file_state_gb=mem,
            )
        )
    return specs


def navit_lite(n_sources: int = 306, seed: int = 17) -> list[SourceSpec]:
    """306-source group mirroring navit_data: variable-resolution images
    (heavy-tailed 14x14-patch counts) and longer, still-skewed text."""
    g = np.random.default_rng(seed)
    specs = []
    for i in range(n_sources):
        cost, mem = _source_heterogeneity(g)
        specs.append(
            SourceSpec(
                name=f"navit_{i:03d}",
                source_id=i,
                weight=float(g.uniform(0.2, 3.0)),
                p_short=float(g.uniform(0.90, 0.97)),
                short_max=int(g.integers(96, 256)),
                tail_alpha=float(g.uniform(1.1, 1.6)),
                tail_min=128,
                img_patch_mode=int(g.integers(64, 512)),
                img_tail_alpha=float(g.uniform(1.3, 2.2)),
                transform_cost_s=cost,
                file_state_gb=mem,
            )
        )
    return specs


def navit_100(seed: int = 17) -> list[SourceSpec]:
    """The paper's navit-100: 100 sources sampled from navit_data (§7.2)."""
    full = navit_lite(seed=seed)
    g = np.random.default_rng(seed + 1)
    keep = sorted(g.choice(len(full), size=100, replace=False))
    return [full[i] for i in keep]


# ---------------------------------------------------------------------------
# Sample generation (counter-based, identical in any pieces).
# ---------------------------------------------------------------------------

SAMPLE_SCHEMA = T.StructType(
    [
        T.StructField("source_id", T.IntegerType(), False),
        T.StructField("source", T.StringType(), False),
        T.StructField("row_idx", T.LongType(), False),
        T.StructField("text_len", T.IntegerType(), False),
        T.StructField("image_patches", T.IntegerType(), False),
        T.StructField("sample_bytes", T.LongType(), False),
    ]
)


def sample_payload_bytes(text_len: np.ndarray, image_patches: np.ndarray) -> np.ndarray:
    """Raw payload size of a sample: 4 B/text token plus raw pixel bytes
    per 14x14 RGB patch (~200x token inflation for images, the §1 OCR
    remark). Shared by the generator and the Data Constructor so byte
    accounting is consistent wherever only metadata survives."""
    return (
        np.asarray(text_len, dtype=np.int64) * 4
        + np.asarray(image_patches, dtype=np.int64) * 588
    )


#: cap on a sample's text tokens; the Pareto tail is unbounded and text
#: lengths are stored as int32
MAX_TEXT_LEN = 1 << 20


#: numpy dtypes of ``SAMPLE_SCHEMA``'s columns but ``source``, a source's constant name
ROW_DTYPES = {
    f.name: np.int32 if f.dataType == T.IntegerType() else np.int64
    for f in SAMPLE_SCHEMA.fields if f.name != "source"
}


def source_columns(
    spec: SourceSpec, row_idx: np.ndarray, *, seed: int = 0
) -> dict[str, np.ndarray]:
    """Rows ``row_idx`` of a source as typed columns (:data:`ROW_DTYPES`)
    — the one generator behind Spark buffers, Parquet sources and Source
    Loader reads and re-reads (replay after failure), so samples are
    bit-identical whoever asks."""
    idx = np.asarray(row_idx, dtype=np.int64)
    u_mix = hash_uniform(seed, spec.source_id * 4 + 0, idx)
    u_short = hash_uniform(seed, spec.source_id * 4 + 1, idx)
    u_tail = hash_uniform(seed, spec.source_id * 4 + 2, idx)
    u_img = hash_uniform(seed, spec.source_id * 4 + 3, idx)

    short = 1 + np.floor(u_short * spec.short_max).astype(np.int64)
    tail = _pareto_from_u(u_tail, spec.tail_min, spec.tail_alpha)
    text = np.where(u_mix < spec.p_short, short, tail.astype(np.int64))
    text = np.clip(text, 1, MAX_TEXT_LEN).astype(np.int32)
    patches = _pareto_from_u(u_img, spec.img_patch_mode, spec.img_tail_alpha)
    patches = np.clip(patches, 16, 16384).astype(np.int32)

    return {
        "source_id": np.full(len(idx), spec.source_id, dtype=np.int32),
        "row_idx": idx,
        "text_len": text,
        "image_patches": patches,
        "sample_bytes": sample_payload_bytes(text, patches),
    }


def rows_frame(source: str | np.ndarray, columns: dict[str, np.ndarray]) -> pd.DataFrame:
    """A frame of row ``columns`` with ``source`` (one name, or one per
    row) after ``source_id``, as in ``SAMPLE_SCHEMA``. The frame takes
    the arrays without copying them, so callers pass arrays nothing else
    writes to."""
    return pd.DataFrame(
        {"source_id": columns["source_id"], "source": source, **columns}, copy=False
    )


def generate_source_rows(
    spec: SourceSpec, start: int, count: int, *, seed: int = 0
) -> pd.DataFrame:
    """Rows [start, start+count) of a source as a frame (:func:`source_columns`)."""
    return rows_frame(spec.name, source_columns(spec, np.arange(start, start + count), seed=seed))


def generate_samples(
    spark: SparkSession,
    specs: Sequence[SourceSpec],
    rows_per_source: int,
    *,
    seed: int = 0,
) -> DataFrame:
    """Rows ``[0, rows_per_source)`` of every source as a Spark local
    relation over :func:`generate_source_rows`."""
    pdf = pd.concat(
        [generate_source_rows(s, 0, rows_per_source, seed=seed) for s in specs],
        ignore_index=True,
    )
    return spark.createDataFrame(pdf, schema=SAMPLE_SCHEMA)


def write_parquet_sources(
    spark: SparkSession,
    specs: Sequence[SourceSpec],
    base_dir: str,
    rows_per_source: int,
    *,
    seed: int = 0,
) -> dict[str, str]:
    """Write one Parquet dataset per source under ``base_dir`` — the
    on-disk substrate Source Loaders read through Spark. Returns
    {source name: path}. Rows are sorted by ``row_idx`` so positional
    cursor reads are well-defined."""
    paths: dict[str, str] = {}
    for spec in specs:
        # one job per source: generation hashes (seed, source, row), so a
        # source's rows do not depend on the sources generated with it
        path = f"{base_dir}/{spec.name}"
        (
            generate_samples(spark, [spec], rows_per_source, seed=seed)
            .repartition(1)
            .sortWithinPartitions("row_idx")
            .write.mode("overwrite")
            .parquet(path)
        )
        paths[spec.name] = path
    return paths


def token_skew_stats(df: DataFrame, threshold: int = 64) -> dict[str, float]:
    """Fig. 2-style skew statistics over a sample DataFrame: the share of
    samples at or below ``threshold`` text tokens and the share of all
    text tokens held by the samples above it."""
    row = df.agg(
        F.avg((F.col("text_len") <= threshold).cast("double")).alias("p_short"),
        (
            F.sum(F.when(F.col("text_len") > threshold, F.col("text_len")).otherwise(0))
            / F.sum("text_len")
        ).alias("tail_token_share"),
    ).collect()[0]
    return {"p_short": float(row["p_short"]), "tail_token_share": float(row["tail_token_share"])}
