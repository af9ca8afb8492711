"""E5 benchmark (Fig. 16): fault-injection traces + the functional
shadow-promotion and replay paths over real Planner/loader actors."""
from repro.experiments.e5_fault import (
    functional_recovery,
    loader_panel,
    planner_panel,
)


def _full_panel():
    return planner_panel() + loader_panel()


def test_e5_failure_traces(benchmark):
    results = benchmark(_full_panel)
    by = {r.label: r for r in results}
    assert by["planner-fail buffer=4"].n_spikes == 0
    assert by["loader-fail shadow"].n_spikes == 0


def test_e5_functional_recovery(benchmark):
    rows = benchmark.pedantic(functional_recovery, rounds=3, iterations=1)
    assert [r["path"] for r in rows] == ["shadow", "replay"]
    assert all(r["streams_identical"] for r in rows)
