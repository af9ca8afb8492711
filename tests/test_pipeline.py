"""End-to-end integration: Parquet sources → Source Loaders → Planner →
Data Constructors → per-client payloads (the §3 workflow), with oracle
checks on delivery correctness."""
import gc
import weakref

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.constructor import DataConstructor, _row_bytes, zigzag_cp_shards
from repro.core.dgraph import DGraph, LoadingPlan, with_sample_id
from repro.core.placetree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.primitives import llm_cost_fn, llm_graph
from repro.core.source_loader import SourceLoader
from repro.data.mixture import ConstantSchedule, LossAdaptiveSchedule, StagedSchedule
from repro.data.sources import coyo_lite, generate_samples, write_parquet_sources
from repro.oracle import assert_equivalent
from repro.sim.models import BACKBONES
from repro.sim.models import sample_backbone_cost
from tests import reference

SPECS = coyo_lite()
CTX = 2048


@pytest.fixture(scope="module")
def parquet_paths(spark, tmp_path_factory):
    base = tmp_path_factory.mktemp("sources")
    return write_parquet_sources(spark, SPECS, str(base), rows_per_source=120, seed=9)


def make_planner(loaders, dp=2, n_mb=2, method="karmarkar_karp"):
    tree = ClientPlaceTree.from_degrees(dp=dp)
    sched = ConstantSchedule([1.0] * len(SPECS))
    cfg = BACKBONES["llama-12b"]

    def cost_fn(pdf):
        return sample_backbone_cost(
            cfg, pdf["text_len"].to_numpy(), pdf["image_patches"].to_numpy()
        )

    return Planner(
        loaders,
        tree,
        sched,
        batch_size=40,
        n_microbatches=n_mb,
        cost_fn=cost_fn,
        method=method,
    )


class TestParquetLoaders:
    def test_loader_reads_parquet_range(self, spark, parquet_paths):
        spec = SPECS[0]
        ld = SourceLoader(spec, spark=spark, path=parquet_paths[spec.name])
        assert ld.fill(10) == 10
        assert list(ld.summary_buffer()["row_idx"]) == list(range(10))

    def test_parquet_matches_synthetic_loader(self, spark, parquet_paths):
        spec = SPECS[1]
        pq = SourceLoader(spec, spark=spark, path=parquet_paths[spec.name], seed=9)
        sy = SourceLoader(spec, seed=9)
        pq.fill(15)
        sy.fill(15)
        pd.testing.assert_frame_equal(
            pq.summary_buffer().reset_index(drop=True),
            sy.summary_buffer().reset_index(drop=True),
            check_dtype=False,
        )

    def test_sharded_parquet_loaders(self, spark, parquet_paths):
        spec = SPECS[2]
        shards = [
            SourceLoader(
                spec, spark=spark, path=parquet_paths[spec.name], shard=i, n_shards=2
            )
            for i in range(2)
        ]
        for s in shards:
            s.fill(5)
        rows = sorted(
            r for s in shards for r in s.summary_buffer()["row_idx"].tolist()
        )
        assert rows == list(range(10))

    def test_fill_past_end_advances_cursor_by_rows_read(self, spark, parquet_paths):
        spec = SPECS[0]
        ld = SourceLoader(spec, spark=spark, path=parquet_paths[spec.name])
        assert ld.fill(200) == 120
        assert ld.state.cursor == 120
        assert ld.fill(5) == 0
        assert ld.checkpoint()["cursor"] == 120


class TestPlannerWorkflow:
    def _loaders(self, seed=9):
        return [SourceLoader(s, seed=seed, buffer_capacity=512) for s in SPECS]

    def test_plan_step_exact_batch(self):
        pl = make_planner(self._loaders())
        pl.ensure_buffered(20)
        plan = pl.plan_step()
        assert plan.n_samples == 40

    def test_planned_rows_staged(self):
        loaders = self._loaders()
        pl = make_planner(loaders)
        pl.ensure_buffered(20)
        plan = pl.plan_step()
        staged = pd.concat([ld.pop_staged() for ld in loaders], ignore_index=True)
        assert sorted(zip(staged["source_id"], staged["row_idx"])) == sorted(
            zip(plan.assignments["source_id"], plan.assignments["row_idx"])
        )

    def test_consecutive_steps_disjoint(self):
        loaders = self._loaders()
        pl = make_planner(loaders)
        pl.ensure_buffered(40)
        p1 = pl.plan_step()
        pl.ensure_buffered(40)
        p2 = pl.plan_step()
        k1 = set(zip(p1.assignments["source_id"], p1.assignments["row_idx"]))
        k2 = set(zip(p2.assignments["source_id"], p2.assignments["row_idx"]))
        assert not (k1 & k2)

    def test_balanced_buckets(self):
        pl = make_planner(self._loaders(), dp=4)
        pl.ensure_buffered(40)
        plan = pl.plan_step()
        loads = plan.assignments.groupby("bucket")["cost"].sum()
        # within 5% of the lower bound (a single heavy-tailed sample can
        # exceed the mean bucket load, so 1.0 is not always reachable)
        lower = max(plan.assignments["cost"].max(), loads.mean()) / loads.mean()
        assert loads.max() / loads.mean() <= lower * 1.05

    def test_vanilla_method_none(self):
        loaders = self._loaders()
        pl = make_planner(loaders, method=None)
        pl.ensure_buffered(20)
        plan = pl.plan_step()
        counts = plan.assignments.groupby("bucket").size()
        assert counts.max() - counts.min() <= 1

    def test_scale_triggers_from_schedule(self):
        loaders = self._loaders()
        tree = ClientPlaceTree.from_degrees(dp=2)
        sched = ConstantSchedule([0.9, 0.025, 0.025, 0.025, 0.025])
        pl = Planner(
            loaders, tree, sched, batch_size=40,
            hi_threshold=0.5, lo_threshold=0.03,
        )
        for _ in range(4):
            pl.ensure_buffered(60)
            pl.plan_step()
        trig = pl.scale_triggers(patience=3)
        assert trig.get(0) == 1  # dominant source scales up
        assert all(trig.get(i) == -1 for i in range(1, 5))  # idle reclaimed

    def test_checkpoint_roundtrip(self):
        pl = make_planner(self._loaders())
        pl.ensure_buffered(20)
        pl.plan_step()
        ck = pl.checkpoint()
        pl2 = make_planner(self._loaders())
        pl2.restore(ck)
        assert pl2.step == 1

    def test_restore_keeps_scale_triggers(self):
        """A Planner restored mid-run fires the same autoscale triggers as
        one that never stopped: the moving-average window is in the
        checkpoint."""
        sched = StagedSchedule([
            (0, [0.9, 0.025, 0.025, 0.025, 0.025]),
            (6, [0.025, 0.9, 0.025, 0.025, 0.025]),  # source 1 takes over
        ])

        def planner():
            return Planner(
                self._loaders(), ClientPlaceTree.from_degrees(dp=2), sched,
                batch_size=40, ma_window=4, hi_threshold=0.5, lo_threshold=0.03,
            )

        def run(pl, n_steps):
            out = []
            for _ in range(n_steps):
                pl.ensure_buffered(60)
                pl.plan_step()
                out.append(pl.scale_triggers(patience=3))
            return out

        ref = run(planner(), 12)
        # triggers change after the stage switch at step 6
        assert ref[5] != ref[-1] and ref[-1].get(1) == 1
        live = planner()
        run(live, 5)
        ck = live.checkpoint()
        run(live, 2)  # the checkpoint must not follow the live planner
        restored = planner()
        restored.restore(ck)
        assert run(restored, 7) == ref[5:]

    def test_restore_keeps_loss_adaptive_mixture(self):
        """A Planner restored mid-run over a freshly built loss-adaptive
        schedule plans the next step as one that never stopped: the
        schedule's loss EMA is in the checkpoint."""
        losses = [[3.0, 1.0, 1.0, 2.0, 1.0], [4.0, 1.0, 0.5, 2.0, 1.0]]

        def planner(loaders):
            sched = LossAdaptiveSchedule(n_sources=len(SPECS), ema=0.5)
            return Planner(loaders, ClientPlaceTree.from_degrees(dp=2), sched, batch_size=40)

        def run(pl, n_steps):
            plans = []
            for step in range(n_steps):
                pl.ensure_buffered(60)
                plans.append(pl.plan_step().assignments)
                pl.schedule.update(losses[step % len(losses)])
            return plans

        ref = run(planner(self._loaders()), 3)
        live = planner(self._loaders())
        run(live, 2)
        restored = planner(live.loaders)
        restored.restore(live.checkpoint())
        restored.ensure_buffered(60)
        pd.testing.assert_frame_equal(restored.plan_step().assignments, ref[-1])

    def test_plan_freed_once_dropped(self):
        """The Planner keeps no reference to the plans it returns."""
        pl = make_planner(self._loaders())
        pl.ensure_buffered(20)
        plan = weakref.ref(pl.plan_step())
        gc.collect()
        assert plan() is None

    def test_summary_sample_ids_match_dgraph(self, spark):
        pl = make_planner(self._loaders())
        pl.ensure_buffered(20)
        summary = pl.summary_buffer()
        keys = spark.createDataFrame(summary[["source_id", "row_idx"]])
        expect = with_sample_id(keys).toPandas()["sample_id"]
        assert summary["sample_id"].tolist() == expect.tolist()

    @pytest.mark.parametrize("empty", ["fresh", "restored"])
    def test_summary_dtypes_with_an_empty_loader(self, empty):
        loaders = self._loaders()
        pl = make_planner(loaders)
        if empty == "fresh":
            for ld in loaders[1:]:
                ld.fill(20)
        else:
            pl.ensure_buffered(20)
            loaders[2].restore(loaders[2].checkpoint())
        summary = pl.summary_buffer()
        assert len(summary) == 80
        assert summary.dtypes.astype(str).to_dict() == {
            "source_id": "int32", "source": "object", "row_idx": "int64",
            "text_len": "int32", "image_patches": "int32", "_shard": "int64",
            "sample_id": "int64", "step": "int64",
        }
        assert pl.plan_raw(summary)["source_id"].dtype == np.int32

    def test_empty_buffer_raises(self):
        pl = make_planner(self._loaders())
        with pytest.raises(RuntimeError):
            pl.plan_step()


class TestOneDeclaration:
    """The in-process Planner and Spark run one declaration: the Planner's
    step function equals ``llm_graph(...).plan(df)`` row for row."""

    SCHEDULES = {
        "constant": ConstantSchedule([3, 1, 1, 2, 1]),
        "staged": StagedSchedule([(0, [1, 1, 1, 1, 1]), (1, [4, 1, 0, 0, 2])]),
    }

    @pytest.mark.parametrize(
        "method, n_mb, schedule",
        [(None, 1, "constant"), ("greedy", 2, "constant"), ("karmarkar_karp", 3, "constant"),
         (None, 3, "staged"), ("greedy", 1, "staged"), ("karmarkar_karp", 2, "staged")],
    )
    def test_planner_equals_spark_plan(self, spark, method, n_mb, schedule):
        tree = ClientPlaceTree.from_degrees(dp=3)
        sched, bb = self.SCHEDULES[schedule], BACKBONES["llama-12b"]
        pl = Planner(
            [SourceLoader(s, seed=3) for s in SPECS], tree, sched, batch_size=30,
            n_microbatches=n_mb, cost_fn=llm_cost_fn(bb), method=method,
        )
        pl.ensure_buffered(40)
        summaries = []
        for step in range(3):  # the staged schedule changes at step 1
            pl.step = step
            summaries.append(pl.summary_buffer())
        df = spark.createDataFrame(pd.concat(summaries, ignore_index=True))
        graph = llm_graph(tree, bb, sched, 30, n_mb, method)
        got = graph.plan(df).to_pandas()
        for step, summary in enumerate(summaries):
            want = pl.plan_raw(summary)
            spark_rows = got[got["step"] == step].reset_index(drop=True)
            assert len(want) == 30
            pd.testing.assert_frame_equal(spark_rows, want[spark_rows.columns])


class TestConstructor:
    def _loading_plan(self, spark, dp=2, cp=1, pp=1, tp=1, n_mb=2, broadcast=()):
        tree = ClientPlaceTree.from_degrees(dp=dp, cp=cp, pp=pp, tp=tp)
        df = generate_samples(spark, SPECS, rows_per_source=40, seed=5)
        df = with_sample_id(df).withColumn("step", F.lit(0))
        g = DGraph(("text_len", "image_patches")).distribute(
            "DP", tree, n_microbatches=n_mb
        )
        for d in broadcast:
            g = g.broadcast_at(d)
        return g.plan(df)

    def test_microbatches_cover_bucket(self, spark):
        plan = self._loading_plan(spark)
        staged = plan.to_pandas()
        dc = DataConstructor(0, plan, CTX)
        mbs = dc.build_microbatches(staged)
        n = sum(len(m.sample_rows) for m in mbs)
        assert n == (staged["bucket"] == 0).sum()

    def test_sequences_respect_capacity(self, spark):
        plan = self._loading_plan(spark)
        dc = DataConstructor(0, plan, CTX)
        for m in dc.build_microbatches(plan.to_pandas()):
            for s in m.sequences:
                assert s.used <= CTX

    def test_padding_accounted(self, spark):
        plan = self._loading_plan(spark)
        dc = DataConstructor(1, plan, CTX)
        for m in dc.build_microbatches(plan.to_pandas()):
            assert m.padded_tokens == m.n_sequences * CTX - m.total_tokens

    def test_cp_clients_get_shards(self, spark):
        plan = self._loading_plan(spark, cp=2)
        dc = DataConstructor(0, plan, CTX)
        mb = dc.build_microbatches(plan.to_pandas())[0]
        payloads = dc.client_payloads(mb)
        kinds = {p.kind for p in payloads.values()}
        assert kinds == {"shard"}
        # CP shards partition the token range
        ranges = sorted(
            r for p in payloads.values() for r in p.token_ranges
        )
        covered = sum(b - a for a, b in ranges)
        assert covered == CTX

    def test_pp_metadata_payload(self, spark):
        plan = self._loading_plan(spark, pp=2)
        dc = DataConstructor(0, plan, CTX)
        mb = dc.build_microbatches(plan.to_pandas())[0]
        payloads = dc.client_payloads(mb)
        kinds = {
            plan.tree.clients[r].coords["PP"]: p.kind for r, p in payloads.items()
        }
        assert kinds[0] == "full" and kinds[1] == "metadata"

    def test_broadcast_excludes_tp(self, spark):
        plan = self._loading_plan(spark, tp=2, broadcast=("TP",))
        dc = DataConstructor(0, plan, CTX)
        mb = dc.build_microbatches(plan.to_pandas())[0]
        payloads = dc.client_payloads(mb)
        assert all(
            plan.tree.clients[r].coords["TP"] == 0 for r in payloads
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),  # bucket: bucket 3 of 4 stays empty
                st.integers(0, 3),  # mb: 3 lies past n_microbatches and is ignored
                st.integers(0, 3000),
                st.integers(0, 3000),
            ),
            max_size=40,
        ),
        st.randoms(use_true_random=False),
        st.booleans(),
    )
    @example([], None, True)
    @example([(0, 1, 10, 0)], None, False)  # microbatch 0 of bucket 0 is empty
    @settings(max_examples=100, deadline=None)
    def test_microbatches_match_reference(self, rows, rnd, with_bytes):
        n_mb, ctx = 3, 4096
        staged = pd.DataFrame(
            rows, columns=["bucket", "mb", "text_len", "image_patches"], dtype=np.int64
        )
        staged = staged.assign(
            source=[f"s{i % 3}" for i in range(len(rows))],
            cost=np.arange(len(rows)) / 7,
            bucket=staged["bucket"].astype(np.int32),
            mb=staged["mb"].astype(np.int32),
        )
        if with_bytes:  # bytes unrelated to the lengths
            staged["sample_bytes"] = np.arange(len(rows), dtype=np.int64) * 1013
        # rows in shuffled order under their old labels, columns in any order
        cols = list(staged.columns)
        if rnd is not None:
            rnd.shuffle(cols)
            staged = staged.iloc[rnd.sample(range(len(rows)), len(rows))]
        staged = staged[cols]
        before = staged.copy()
        tree = ClientPlaceTree.from_degrees(dp=4)
        plan = LoadingPlan(
            assignments=staged, tree=tree, axis="DP", group_size=None, n_buckets=4,
            n_microbatches=n_mb, broadcast_dims=(), lineage=(),
        )
        for b in range(4):
            got = DataConstructor(b, plan, ctx).build_microbatches(staged)
            want = reference.build_microbatches(staged, b, n_mb, ctx)
            assert len(got) == len(want) == n_mb
            for g, w in zip(got, want):
                assert (g.index, g.sequences, g.n_bytes) == (w.index, w.sequences, w.n_bytes)
                pd.testing.assert_frame_equal(
                    g.sample_rows, w.sample_rows, check_index_type=True
                )
        pd.testing.assert_frame_equal(staged, before, check_index_type=True)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1),  # bucket
                st.integers(0, 2),  # mb
                st.integers(0, 3000),
                st.integers(0, 3000),
                st.integers(0, 10**6),  # sample_bytes, unrelated to the lengths
            ),
            max_size=30,
        ),
        st.sampled_from([1, 2, 4]),
        st.booleans(),
        st.booleans(),
    )
    @example([], 2, False, True)
    @example([(0, 0, 5, 0, 7)], 4, True, False)
    @settings(max_examples=100, deadline=None)
    def test_payloads_match_reference(self, rows, cp, broadcast_tp, with_bytes):
        # PP2 and TP2 give metadata, full and shard consumers, and TP ranks
        # that broadcast_at("TP") excludes; with no sample_bytes column the
        # bytes come from sample_payload_bytes
        cols = ["bucket", "mb", "text_len", "image_patches", "sample_bytes"]
        staged = pd.DataFrame(rows, columns=cols, dtype=np.int64)
        if not with_bytes:
            staged = staged.drop(columns="sample_bytes")
        tree = ClientPlaceTree.from_degrees(pp=2, dp=2, cp=cp, tp=2)
        plan = LoadingPlan(
            assignments=staged, tree=tree, axis="DP", group_size=None, n_buckets=2,
            n_microbatches=2, broadcast_dims=("TP",) if broadcast_tp else (),
            lineage=(),
        )
        for b in range(2):
            dc = DataConstructor(b, plan, 4096)
            for mb in dc.build_microbatches(staged):
                assert mb.n_bytes == _row_bytes(mb.sample_rows).sum()
                assert dc.client_payloads(mb) == reference.client_payloads(dc, mb)

    def test_zigzag_shards(self):
        shards = zigzag_cp_shards(8, 2)
        assert shards == [[(0, 2), (6, 8)], [(2, 4), (4, 6)]]

    def test_zigzag_rejects_indivisible(self):
        with pytest.raises(ValueError):
            zigzag_cp_shards(10, 4)


class TestDeliveryOracle:
    def test_every_sample_delivered_exactly_once(self, spark):
        """The core correctness claim: disaggregation delivers each
        admitted sample to exactly one (bucket, microbatch)."""
        tree = ClientPlaceTree.from_degrees(dp=4)
        df = generate_samples(spark, SPECS, rows_per_source=60, seed=11)
        df = with_sample_id(df).withColumn(
            "step", (F.col("row_idx") % 2).cast("int")
        )
        plan = (
            DGraph(("text_len", "image_patches"))
            .distribute("DP", tree, n_microbatches=2)
            .plan(df)
        )
        per_sample = plan.assignments.groupBy("sample_id").agg(
            F.count("*").alias("n")
        )
        assert_equivalent(
            per_sample,
            "SELECT sample_id, count(*) AS n FROM plan GROUP BY sample_id",
            plan=plan.assignments,
        )
        assert per_sample.filter(F.col("n") != 1).count() == 0
        assert per_sample.count() == df.count()

    def test_token_conservation_through_pipeline(self, spark):
        tree = ClientPlaceTree.from_degrees(dp=2)
        df = generate_samples(spark, SPECS, rows_per_source=30, seed=12)
        df = with_sample_id(df).withColumn("step", F.lit(0))
        plan = (
            DGraph(("text_len", "image_patches"))
            .distribute("DP", tree, n_microbatches=2)
            .plan(df)
        )
        staged = plan.to_pandas()
        # packing truncates fused sequences at the context capacity (the
        # crop behaviour), so conservation holds on clipped lengths
        fused = (staged["text_len"] + staged["image_patches"]).clip(upper=CTX)
        total_in = int(fused.sum())
        total_out = 0
        for b in range(2):
            dc = DataConstructor(b, plan, CTX)
            for m in dc.build_microbatches(staged):
                total_out += m.total_tokens
        assert total_out == total_in
