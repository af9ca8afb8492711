"""Tests for the multisource synthetic data generators (Spark path)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.data import sources as S
from repro.oracle import assert_equivalent


class TestSpecs:
    def test_coyo_has_5_sources(self):
        assert len(S.coyo_lite()) == 5

    def test_navit_has_306_sources(self):
        assert len(S.navit_lite()) == 306

    def test_navit_100_subset(self):
        full = {s.name for s in S.navit_lite()}
        sub = S.navit_100()
        assert len(sub) == 100
        assert {s.name for s in sub} <= full

    def test_source_ids_unique(self):
        ids = [s.source_id for s in S.navit_lite()]
        assert len(set(ids)) == len(ids)

    def test_heterogeneous_costs(self):
        costs = [s.transform_cost_s for s in S.navit_lite()]
        # Fig. 5: latency skew spans orders of magnitude
        assert max(costs) / min(costs) > 100

    def test_specs_deterministic(self):
        assert S.coyo_lite() == S.coyo_lite()

    def test_file_state_in_range(self):
        for s in S.navit_lite():
            assert 0.01 <= s.file_state_gb <= 2.0


class TestHashUniform:
    def test_range(self):
        u = S.hash_uniform(0, 0, np.arange(10000))
        assert u.min() > 0 and u.max() < 1

    def test_partition_invariance(self):
        idx = np.arange(1000)
        whole = S.hash_uniform(7, 3, idx)
        parts = np.concatenate(
            [S.hash_uniform(7, 3, idx[:300]), S.hash_uniform(7, 3, idx[300:])]
        )
        assert np.array_equal(whole, parts)

    def test_streams_independent(self):
        idx = np.arange(100)
        assert not np.array_equal(S.hash_uniform(0, 0, idx), S.hash_uniform(0, 1, idx))

    def test_roughly_uniform(self):
        u = S.hash_uniform(1, 1, np.arange(50000))
        hist, _ = np.histogram(u, bins=10, range=(0, 1))
        assert hist.min() > 4500 and hist.max() < 5500


class TestGeneration:
    def test_driver_rows_deterministic(self):
        spec = S.coyo_lite()[0]
        a = S.generate_source_rows(spec, 10, 20, seed=1)
        b = S.generate_source_rows(spec, 10, 20, seed=1)
        pd.testing.assert_frame_equal(a, b)

    def test_driver_rows_offset_consistency(self):
        # rows [0,30) == rows [0,10) + rows [10,30): counter-based RNG
        spec = S.coyo_lite()[1]
        whole = S.generate_source_rows(spec, 0, 30)
        split = pd.concat(
            [S.generate_source_rows(spec, 0, 10), S.generate_source_rows(spec, 10, 20)],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(whole, split)

    def test_text_len_capped(self, monkeypatch):
        monkeypatch.setattr(S, "MAX_TEXT_LEN", 128)
        spec = S.coyo_lite()[0]
        pdf = S.generate_source_rows(spec, 0, 5000)
        assert pdf["text_len"].max() <= 128
        assert pdf["text_len"].min() >= 1

    def test_spark_generation_counts(self, spark):
        specs = S.coyo_lite()
        df = S.generate_samples(spark, specs, rows_per_source=100)
        counts = {
            r["source_id"]: r["n"]
            for r in df.groupBy("source_id").agg(F.count("*").alias("n")).collect()
        }
        assert counts == {s.source_id: 100 for s in specs}

    def test_spark_matches_driver_generation(self, spark):
        specs = S.coyo_lite()[:2]
        df = (
            S.generate_samples(spark, specs, rows_per_source=50)
            .filter(F.col("source_id") == specs[0].source_id)
            .orderBy("row_idx")
            .toPandas()
        )
        expect = S.generate_source_rows(specs[0], 0, 50)
        pd.testing.assert_frame_equal(
            df.reset_index(drop=True), expect, check_dtype=False
        )

    def test_spark_generation_is_local_relation(self, spark):
        """The Spark frame is the driver generator's rows as a local
        relation: no distributed generation step."""
        df = S.generate_samples(spark, S.coyo_lite(), rows_per_source=10)
        plan = df._jdf.queryExecution().executedPlan().toString()
        assert "LocalTableScan" in plan
        assert "MapInPandas" not in plan

    def test_skew_matches_fig2(self, spark):
        # coyo: ~98% of samples <= 64 text tokens, tail holds >= ~5% of tokens
        specs = S.coyo_lite()
        df = S.generate_samples(spark, specs, rows_per_source=4000)
        stats = S.token_skew_stats(df, threshold=64)
        assert 0.96 <= stats["p_short"] <= 0.995
        assert stats["tail_token_share"] >= 0.05

    def test_navit_patches_heavy_tailed(self, spark):
        specs = S.navit_lite()[:10]
        pdf = S.generate_samples(spark, specs, rows_per_source=1000).toPandas()
        p = pdf["image_patches"]
        assert p.max() / p.median() > 5  # variable-resolution tail

    def test_oracle_aggregate(self, spark):
        # oracle check: per-source token sums agree with DuckDB
        specs = S.coyo_lite()
        df = S.generate_samples(spark, specs, rows_per_source=200)
        agg = df.groupBy("source_id").agg(
            F.sum("text_len").alias("text_tokens"),
            F.sum("image_patches").alias("image_tokens"),
        )
        assert_equivalent(
            agg,
            """
            SELECT source_id,
                   sum(text_len) AS text_tokens,
                   sum(image_patches) AS image_tokens
            FROM samples GROUP BY source_id
            """,
            samples=df,
        )


class TestParquet:
    def test_roundtrip(self, spark, tmp_path):
        specs = S.coyo_lite()[:2]
        paths = S.write_parquet_sources(spark, specs, str(tmp_path), rows_per_source=50)
        assert set(paths) == {s.name for s in specs}
        back = spark.read.parquet(paths[specs[0].name]).orderBy("row_idx").toPandas()
        expect = S.generate_source_rows(specs[0], 0, 50)
        pd.testing.assert_frame_equal(
            back.reset_index(drop=True), expect, check_dtype=False
        )

    def test_one_dataset_per_source(self, spark, tmp_path):
        specs = S.coyo_lite()[:3]
        paths = S.write_parquet_sources(spark, specs, str(tmp_path), rows_per_source=10)
        for name, p in paths.items():
            pdf = spark.read.parquet(p).toPandas()
            assert (pdf["source"] == name).all()
