"""E5 (Fig. 16) and E6 (Fig. 18) shape tests."""
import math

from repro.experiments.e5_fault import (
    functional_recovery,
    loader_panel,
    planner_panel,
)
from repro.experiments.e6_scalability import run


class TestE5Planner:
    def test_buffer4_hides_recovery(self):
        res = {r.label: r for r in planner_panel()}
        assert res["planner-fail buffer=4"].n_spikes == 0
        assert res["planner-fail buffer=2"].n_spikes > 0

    def test_buffer4_faster_overall(self):
        res = {r.label: r for r in planner_panel()}
        assert (
            res["planner-fail buffer=4"].total_time_s
            < res["planner-fail buffer=2"].total_time_s
        )


class TestE5Loader:
    def test_shadow_spike_free(self):
        res = {r.label: r for r in loader_panel()}
        assert res["loader-fail shadow"].n_spikes == 0
        assert res["loader-fail replay"].n_spikes > 0

    def test_replay_spikes_at_kill_step(self):
        res = {r.label: r for r in loader_panel()}
        spikes = res["loader-fail replay"].trace.spikes(0.05)
        assert spikes.min() == 35


class TestE5Functional:
    def test_stream_identical_after_promotion(self):
        rows = functional_recovery()
        assert [r["path"] for r in rows] == ["shadow", "replay"]
        for out in rows:
            assert out["streams_identical"]
            assert out["duplicates"] == 0
            assert out["killed"] >= 1

    def test_larger_kill_fraction_still_recovers(self):
        rows = functional_recovery(kill_fraction=0.8)
        assert [r["path"] for r in rows] == ["shadow", "replay"]
        assert all(out["streams_identical"] for out in rows)


class TestE6:
    def test_fig18_rows(self):
        pts = {p.n_gpus: p for p in run()}
        assert set(pts) == {1024, 2048, 4096}

    def test_2k_order_of_magnitude(self):
        pts = {p.n_gpus: p for p in run()}
        assert pts[2048].slowdown >= 5.0

    def test_4k_collapse(self):
        pts = {p.n_gpus: p for p in run()}
        assert pts[4096].direct_collapsed
        assert not math.isinf(pts[4096].constructor_latency_ms)

    def test_constructor_latency_grows_slowly(self):
        pts = {p.n_gpus: p for p in run()}
        assert (
            pts[4096].constructor_latency_ms
            < pts[1024].constructor_latency_ms * 10
        )
