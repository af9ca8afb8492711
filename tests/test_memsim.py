"""Tests for the memory cost model (E1/E3 engine)."""
import pytest

from repro.core.autoscaler import ResourcePool, auto_partition
from repro.data.sources import coyo_lite, navit_lite
from repro.experiments.e1_preprocessing import run_all
from repro.experiments.e3_redundancy import run_ablations, run_grid
from repro.sim import memsim as MS


SPECS = coyo_lite()
BATCH_BYTES = 2e9  # 2 GB group batch


class TestClusterConfig:
    def test_world_and_dp(self):
        c = MS.ClusterConfig(n_nodes=18, tp=4, pp=4)
        assert c.world == 288 and c.dp == 18

    def test_loader_ranks_exclude_tp(self):
        c = MS.ClusterConfig(n_nodes=18, tp=4, pp=4)
        assert c.n_loader_ranks == 72  # dp * pp

    def test_indivisible_rejected(self):
        c = MS.ClusterConfig(n_nodes=1, gpus_per_node=10, tp=4)
        with pytest.raises(ValueError):
            _ = c.dp


class TestColocated:
    def test_per_node_memory(self):
        c = MS.ClusterConfig(n_nodes=4, gpus_per_node=4, tp=1, pp=1)
        total = MS.colocated_memory(
            SPECS, c, workers=2, batch_bytes_per_group=BATCH_BYTES
        )
        states = sum(s.file_state_gb for s in SPECS)
        per_instance = 2 * (MS.WORKER_BASE_GB + states) + 2 * BATCH_BYTES / 1e9
        # 4 loader instances per node (tp=pp=cp=1)
        assert total / c.n_nodes == pytest.approx(4 * per_instance)
        # pp=2: dp=6 groups x 2 stages = 12 loader instances
        c = MS.ClusterConfig(n_nodes=3, gpus_per_node=4, pp=2)
        total = MS.colocated_memory(
            SPECS, c, workers=2, batch_bytes_per_group=BATCH_BYTES
        )
        assert total == pytest.approx(12 * per_instance)

    def test_worker_scaling(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)
        m1 = MS.colocated_memory(SPECS, c, workers=1, batch_bytes_per_group=0)
        m4 = MS.colocated_memory(SPECS, c, workers=4, batch_bytes_per_group=0)
        assert m4 == pytest.approx(4 * m1)

    def test_source_scaling_linear(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)
        few = MS.colocated_memory(navit_lite(20), c, workers=1, batch_bytes_per_group=0)
        many = MS.colocated_memory(navit_lite(40), c, workers=1, batch_bytes_per_group=0)
        assert many > few  # linear memory growth with sources (§2.3)


class TestOverlord:
    def test_components_present(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)
        mem = MS.overlord_memory(SPECS, c, batch_bytes_per_group=BATCH_BYTES)
        assert set(mem) == {"loader", "constructor", "planner"}
        assert mem["planner"] == MS.PLANNER_GB

    def test_vanilla_one_actor_per_dp_group(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)  # dp=8
        mem = MS.overlord_memory(SPECS, c, batch_bytes_per_group=0)
        states = sum(s.file_state_gb for s in SPECS)
        one = MS.ACTOR_BASE_GB + 4 * MS.WORKER_BASE_GB + states
        assert mem["loader"] == pytest.approx(8 * one)

    def test_constructor_memory_scales_with_batch(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)  # dp=8

        def constructors(batch_bytes):
            return MS.overlord_memory(SPECS, c, batch_bytes_per_group=batch_bytes)[
                "constructor"
            ]

        assert constructors(0) == pytest.approx(8 * MS.CONSTRUCTOR_BASE_GB)
        # PREFETCH in-flight copies + one staging copy per DP group
        assert constructors(BATCH_BYTES) - constructors(0) == pytest.approx(
            8 * (MS.PREFETCH + 1) * BATCH_BYTES / 1e9
        )

    def test_auto_configs_accepted(self):
        c = MS.ClusterConfig(n_nodes=2, gpus_per_node=4)
        cfgs = auto_partition(SPECS, ResourcePool(64, 8.0))
        mem = MS.overlord_memory(SPECS, c, batch_bytes_per_group=0, configs=cfgs)
        assert mem["loader"] > 0


class TestRatio:
    def test_overlord_saves_at_high_parallelism(self):
        c = MS.ClusterConfig(n_nodes=8, gpus_per_node=16, tp=4, pp=4, cp=2)
        r = MS.memory_ratio(SPECS, c, workers=4, batch_bytes_per_group=BATCH_BYTES)
        assert r < 0.5

    def test_marginal_overhead_at_low_parallelism(self):
        # tp carries the loader-free ranks; with pp=cp=1 the colocated
        # loader count equals OVERLORD's actor count, so the constructor
        # buffer makes the ratio land near (or above) 1
        c = MS.ClusterConfig(n_nodes=8, gpus_per_node=16, tp=8, pp=1, cp=1)
        r = MS.memory_ratio(SPECS, c, workers=1, batch_bytes_per_group=BATCH_BYTES)
        assert 0.8 < r

    def test_more_parallelism_more_savings(self):
        base = dict(workers=4, batch_bytes_per_group=BATCH_BYTES)
        low = MS.memory_ratio(SPECS, MS.ClusterConfig(8, 16, tp=8, pp=1, cp=1), **base)
        high = MS.memory_ratio(
            SPECS, MS.ClusterConfig(8, 16, tp=8, pp=4, cp=2), **base
        )
        assert high < low


# Values of the Spark implementation this model replaced (E1 ``run_all``
# and the E3 grid and ablations); EXPERIMENTS.md reports them rounded.
#: E1 ``mem_per_node_gb`` by (system, gpus, dataset)
E1_MEM_PER_NODE_GB = {
    ("colocated", 288, "navit-100"): 265.32942560350386,
    ("overlord-vanilla", 288, "navit-100"): 24.288270402580128,
    ("overlord-auto", 288, "navit-100"): 41.28867728849824,
    ("colocated", 288, "navit_data"): 240.6467208129028,
    ("overlord-vanilla", 288, "navit_data"): 67.05046592783675,
    ("overlord-auto", 288, "navit_data"): 36.80448667251259,
    ("colocated", 576, "navit-100"): 277.2724994395037,
    ("overlord-vanilla", 576, "navit-100"): 7.219508550547804,
    ("overlord-auto", 576, "navit-100"): 21.934114092332464,
    ("colocated", 576, "navit_data"): 250.9109115369028,
    ("overlord-vanilla", 576, "navit_data"): 17.752662140111976,
    ("overlord-auto", 576, "navit_data"): 34.456533034284035,
}
#: E3 grid ratio by (cp, pp)
E3_GRID = {
    (1, 1): 1.0206221971125544,
    (1, 2): 0.5103259288652158,
    (1, 4): 0.25517779474156,
    (1, 8): 0.1276037276797179,
    (2, 1): 0.5103259288652158,
    (2, 2): 0.25517779474156,
    (2, 4): 0.1276037276797179,
    (2, 8): 0.06381669414879765,
    (4, 1): 0.25517779474156,
    (4, 2): 0.1276037276797179,
    (4, 4): 0.06381669414879765,
    (4, 8): 0.031923177383337345,
    (8, 1): 0.1276037276797179,
    (8, 2): 0.06381669414879765,
    (8, 4): 0.031923177383337345,
    (8, 8): 0.015976419000607187,
}
#: E3 ablation ratio by name → (cp, pp, n_nodes, workers, group_batch)
E3_ABLATIONS = {
    "batch": {
        (1, 1, 512, 4, 512): 1.0206221971125544,
        (1, 1, 512, 4, 2048): 1.0315493056651899,
        (2, 2, 512, 4, 512): 0.25517779474156,
        (2, 2, 512, 4, 2048): 0.2579090648086809,
        (4, 4, 512, 4, 512): 0.06381669414879765,
        (4, 4, 512, 4, 2048): 0.06449900459455374,
    },
    "workers": {
        (1, 1, 512, 4, 512): 1.0206221971125544,
        (1, 1, 512, 16, 512): 1.0051857902908177,
        (2, 2, 512, 4, 512): 0.25517779474156,
        (2, 2, 512, 16, 512): 0.2513020415599619,
        (4, 4, 512, 4, 512): 0.06381669414879765,
        (4, 4, 512, 16, 512): 0.0628311043772627,
    },
    "cluster": {
        (1, 1, 512, 4, 512): 1.0206221971125544,
        (1, 1, 4096, 4, 512): 1.0205962440718297,
        (2, 2, 512, 4, 512): 0.25517779474156,
        (2, 2, 4096, 4, 512): 0.2551518417009687,
        (4, 4, 512, 4, 512): 0.06381669414879765,
        (4, 4, 4096, 4, 512): 0.06379074110815633,
    },
}


def test_e1_e3_values_pinned():
    e1 = {
        (r.system, r.n_gpus, r.dataset): r.mem_per_node_gb for r in run_all(n_iters=2)
    }
    assert e1 == pytest.approx(E1_MEM_PER_NODE_GB, rel=1e-9, abs=0)
    grid = {(c.cp, c.pp): c.ratio for c in run_grid()}
    assert grid == pytest.approx(E3_GRID, rel=1e-9, abs=0)
    ablations = {
        name: {
            (c.cp, c.pp, c.n_nodes, c.workers, c.group_batch): c.ratio for c in cells
        }
        for name, cells in run_ablations().items()
    }
    assert ablations.keys() == E3_ABLATIONS.keys()
    for name, cells in ablations.items():
        assert cells == pytest.approx(E3_ABLATIONS[name], rel=1e-9, abs=0), name
