"""Unit tests for offline source auto-partitioning and online
mixture-driven scaling (§5)."""
import numpy as np
import pytest

from repro.core.autoscaler import (
    LoaderConfig,
    MixtureScaler,
    ResourcePool,
    ScaleEvent,
    auto_partition,
    cluster_sources,
    total_cpu_demand,
)
from repro.core.source_loader import SourceLoader
from repro.data.sources import coyo_lite, navit_lite


POOL = ResourcePool(total_cpus=256, per_actor_mem_gb=8.0)


class TestClustering:
    def test_cluster_sizes(self):
        specs = navit_lite(n_sources=10)
        clusters = cluster_sources(specs, cluster_size=4)
        assert [len(c) for c in clusters] == [4, 4, 2]

    def test_descending_cost_order(self):
        specs = navit_lite(n_sources=12)
        clusters = cluster_sources(specs, cluster_size=4)
        means = [np.mean([s.transform_cost_s for s in c]) for c in clusters]
        assert means == sorted(means, reverse=True)

    def test_all_sources_kept(self):
        specs = coyo_lite()
        clusters = cluster_sources(specs, cluster_size=2)
        names = sorted(s.name for c in clusters for s in c)
        assert names == sorted(s.name for s in specs)

    def test_bad_cluster_size(self):
        with pytest.raises(ValueError):
            cluster_sources(coyo_lite(), cluster_size=0)


class TestAutoPartition:
    def test_empty(self):
        assert auto_partition([], POOL) == []

    def test_one_config_per_source(self):
        specs = navit_lite(n_sources=20)
        configs = auto_partition(specs, POOL)
        assert len(configs) == 20
        assert {c.source_id for c in configs} == {s.source_id for s in specs}

    def test_expensive_sources_get_more_workers(self):
        specs = navit_lite(n_sources=40)
        configs = {c.source_id: c for c in auto_partition(specs, POOL)}
        most = max(specs, key=lambda s: s.transform_cost_s)
        least = min(specs, key=lambda s: s.transform_cost_s)
        assert configs[most.source_id].total_workers >= configs[
            least.source_id
        ].total_workers

    def test_w_src_cap(self):
        specs = navit_lite(n_sources=8)
        configs = auto_partition(specs, POOL, w_src=2)
        assert all(c.total_workers <= 2 for c in configs)

    def test_w_actor_cap(self):
        specs = navit_lite(n_sources=8)
        configs = auto_partition(specs, POOL, w_actor=2, w_src=16)
        assert all(c.workers_per_actor <= 2 for c in configs)

    def test_memory_pressure_raises_actor_count(self):
        specs = navit_lite(n_sources=16)
        tight = ResourcePool(total_cpus=256, per_actor_mem_gb=0.5)
        loose = ResourcePool(total_cpus=256, per_actor_mem_gb=64.0)
        a_tight = auto_partition(specs, tight)
        a_loose = auto_partition(specs, loose)
        assert sum(c.n_actors for c in a_tight) >= sum(c.n_actors for c in a_loose)

    def test_empty_loader_memory_is_the_fitted_memory(self):
        """An empty Source Loader shard occupies exactly the actor memory
        the AutoScaler fits against the per-actor budget."""
        spec = max(navit_lite(n_sources=40), key=lambda s: s.file_state_gb)

        def fitted(budget_gb):
            return auto_partition([spec], ResourcePool(64, budget_gb))[0]

        cfg = fitted(spec.file_state_gb)
        assert cfg.n_actors >= 2  # the budget forces Source Parallelism
        mem = SourceLoader(
            spec,
            shard=cfg.n_actors - 1,
            n_shards=cfg.n_actors,
            workers=cfg.workers_per_actor,
        ).memory_gb()
        assert fitted(mem) == cfg  # fits exactly at its own memory
        assert fitted(np.nextafter(mem, 0)).n_actors > cfg.n_actors

    def test_cpu_demand_reasonable(self):
        specs = navit_lite(n_sources=30)
        configs = auto_partition(specs, POOL)
        # demand is bounded by the number of sources times caps
        assert total_cpu_demand(configs) <= 30 * 16

    def test_positive_workers_everywhere(self):
        specs = coyo_lite()
        for c in auto_partition(specs, POOL):
            assert c.n_actors >= 1 and c.workers_per_actor >= 1


class TestMixtureScaler:
    def _configs(self, n=3):
        return [LoaderConfig(f"s{i}", i, n_actors=2, workers_per_actor=2) for i in range(n)]

    def test_scale_up(self):
        ms = MixtureScaler(self._configs())
        events = ms.apply_triggers({0: 1})
        assert events == [ScaleEvent(0, 1, 3)]
        assert ms.configs[0].n_actors == 3

    def test_scale_down(self):
        ms = MixtureScaler(self._configs())
        events = ms.apply_triggers({1: -1})
        assert events[0].new_n_actors == 1

    def test_max_actor_cap(self):
        ms = MixtureScaler(self._configs(), max_actors=2)
        assert ms.apply_triggers({0: 1}) == []  # already at cap

    def test_floor_of_one_actor(self):
        cfgs = [LoaderConfig("s0", 0, n_actors=1, workers_per_actor=1)]
        ms = MixtureScaler(cfgs)
        assert ms.apply_triggers({0: -1}) == []
        assert ms.configs[0].n_actors == 1

    def test_unknown_source_ignored(self):
        ms = MixtureScaler(self._configs())
        assert ms.apply_triggers({99: 1}) == []

    def test_reshard_plan_covers_all_shards(self):
        ms = MixtureScaler(self._configs())
        [ev] = ms.apply_triggers({0: 1})
        plan = ms.reshard_plan(ev)
        assert plan == [(0, 3), (1, 3), (2, 3)]

    def test_event_log_accumulates(self):
        ms = MixtureScaler(self._configs())
        ms.apply_triggers({0: 1})
        ms.apply_triggers({0: 1})
        assert len(ms.events) == 2
        assert ms.configs[0].n_actors == 4
