"""Unit tests for the colocated dataloader baseline."""
import pandas as pd
import pytest

from repro.baselines.colocated import ColocatedLoaderSystem
from repro.core.placetree import ClientPlaceTree
from repro.core.source_loader import WORKER_BASE_GB
from repro.data.mixture import ConstantSchedule
from repro.data.sources import coyo_lite
from repro.sim.memsim import ClusterConfig, colocated_memory


@pytest.fixture
def specs():
    return coyo_lite()


def make_system(specs, pp=1, dp=2, cp=1, tp=1, workers=2):
    tree = ClientPlaceTree.from_degrees(pp=pp, dp=dp, cp=cp, tp=tp)
    sched = ConstantSchedule([s.weight for s in specs])
    return ColocatedLoaderSystem(tree, specs, sched, workers=workers)


class TestInstances:
    def test_loader_on_every_non_tp_rank(self, specs):
        sys = make_system(specs, pp=2, dp=2, cp=2, tp=2)
        assert sys.n_instances == 8  # pp*dp*cp, tp0 only

    def test_tp_only_mesh_single_instance(self, specs):
        sys = make_system(specs, tp=4, dp=1)
        assert sys.n_instances == 1


class TestLoading:
    def test_each_instance_loads_group_share(self, specs):
        sys = make_system(specs, dp=2)
        loaded = sys.load_step(batch_size=40)
        total = sum(len(df) for df in loaded.values())
        assert total == 40  # dp=2, no cp/pp redundancy in this mesh

    def test_groups_get_disjoint_rows(self, specs):
        sys = make_system(specs, dp=2)
        loaded = sys.load_step(batch_size=40)
        frames = list(loaded.values())
        keys = [set(zip(df["source_id"], df["row_idx"])) for df in frames]
        assert not (keys[0] & keys[1])

    def test_cp_pp_ranks_duplicate_loads(self, specs):
        sys = make_system(specs, dp=2, cp=2, pp=2)
        loaded = sys.load_step(batch_size=40)
        factor = sys.redundant_access_factor(loaded)
        assert factor == pytest.approx(4.0)  # cp * pp

    def test_no_redundancy_without_cp_pp(self, specs):
        sys = make_system(specs, dp=4)
        loaded = sys.load_step(batch_size=40)
        assert sys.redundant_access_factor(loaded) == pytest.approx(1.0)

    def test_steps_advance_cursors(self, specs):
        sys = make_system(specs, dp=1)
        a = sys.load_step(batch_size=10)[0]
        b = sys.load_step(batch_size=10)[0]
        assert not (
            set(zip(a["source_id"], a["row_idx"]))
            & set(zip(b["source_id"], b["row_idx"]))
        )

    def test_mixture_proportions(self, specs):
        tree = ClientPlaceTree.from_degrees(dp=1)
        sched = ConstantSchedule([1, 0, 0, 0, 0])
        sys = ColocatedLoaderSystem(tree, specs, sched, workers=1)
        loaded = sys.load_step(batch_size=20)[0]
        assert (loaded["source_id"] == specs[0].source_id).all()

    def test_replicas_of_same_group_identical(self, specs):
        sys = make_system(specs, dp=1, cp=2)
        loaded = sys.load_step(batch_size=10)
        frames = list(loaded.values())
        pd.testing.assert_frame_equal(
            frames[0].reset_index(drop=True), frames[1].reset_index(drop=True)
        )


class TestMemory:
    """The memory model (``memsim``) counts exactly the loader instances
    this functional baseline builds."""

    @staticmethod
    def _total_gb(specs, sys, batch_bytes):
        cluster = ClusterConfig(
            n_nodes=1,
            gpus_per_node=len(sys.tree.clients),
            pp=sys.tree.dims.get("PP", 1),
            cp=sys.tree.dims.get("CP", 1),
            tp=sys.tree.dims.get("TP", 1),
        )
        assert cluster.n_loader_ranks == sys.n_instances
        return colocated_memory(
            specs, cluster, workers=sys.workers, batch_bytes_per_group=batch_bytes
        )

    def test_memory_scales_with_instances(self, specs):
        small = self._total_gb(specs, make_system(specs, dp=2), 1e6)
        big = self._total_gb(specs, make_system(specs, dp=2, cp=2), 1e6)
        assert big == pytest.approx(2 * small)

    def test_memory_scales_with_workers(self, specs):
        w1 = self._total_gb(specs, make_system(specs, dp=1, workers=1), 0)
        w4 = self._total_gb(specs, make_system(specs, dp=1, workers=4), 0)
        assert w4 == pytest.approx(4 * w1)

    def test_per_worker_source_states(self, specs):
        # per-worker replication of *all* source states (the §2.3 pathology)
        sys = make_system(specs, dp=1, workers=2)
        states = sum(s.file_state_gb for s in specs)
        assert self._total_gb(specs, sys, 0) == pytest.approx(
            2 * (WORKER_BASE_GB + states)
        )
