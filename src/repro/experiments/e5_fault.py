"""E5 — non-interrupted fault tolerance (§7.5, Fig. 16).

Left panel: Planner failure injection every 15 iterations after 5
warm-up steps under prefetch buffers of 2 and 4 units (64 concurrent
loaders). Right panel: randomly terminating 5-10 of 64 loaders at step
35, with shadow-loader promotion vs differential-checkpoint replay.

Additionally an end-to-end functional check: a real Planner + loader
fleet survives a loader kill with identical delivered samples under
both recovery paths, shadow promotion and checkpoint replay (the
discrete-event traces quantify the latency shape; the functional path
proves no sample is lost or duplicated).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.checkpoint import CheckpointStore, DifferentialCheckpointer, ShadowLoader
from repro.core.placetree import ClientPlaceTree
from repro.core.planner import Planner
from repro.core.source_loader import SourceLoader
from repro.data.mixture import LossAdaptiveSchedule, StagedSchedule
from repro.data.sources import coyo_lite
from repro.sim.faultsim import FaultTrace, loader_failure_sim, planner_failure_sim


@dataclass(frozen=True)
class E5Result:
    label: str
    trace: FaultTrace
    n_spikes: int
    total_time_s: float


def planner_panel(*, n_iters: int = 60, base_fetch_s: float = 0.05) -> list[E5Result]:
    """Fig. 16 left: prefetch buffer 2 vs 4."""
    out = []
    for buf in (2, 4):
        tr = planner_failure_sim(
            n_iters=n_iters, prefetch_buffer=buf, base_fetch_s=base_fetch_s
        )
        out.append(
            E5Result(
                f"planner-fail buffer={buf}",
                tr,
                len(tr.spikes(base_fetch_s)),
                tr.total_time_s,
            )
        )
    return out


def loader_panel(
    *, n_killed: int = 7, n_iters: int = 60, base_fetch_s: float = 0.05
) -> list[E5Result]:
    """Fig. 16 right: shadow promotion vs checkpoint replay."""
    out = []
    for shadow in (True, False):
        tr = loader_failure_sim(
            n_iters=n_iters,
            n_killed=n_killed,
            use_shadow=shadow,
            base_fetch_s=base_fetch_s,
        )
        label = "loader-fail shadow" if shadow else "loader-fail replay"
        out.append(
            E5Result(label, tr, len(tr.spikes(base_fetch_s)), tr.total_time_s)
        )
    return out


RECOVERY_PATHS = ("shadow", "replay")


def _sorted_pairs(rows: pd.DataFrame) -> np.ndarray:
    """``(source_id, row_idx)`` pairs of ``rows`` in sorted order."""
    return rows.sort_values(["source_id", "row_idx"]).to_numpy(np.int64)


def delivered_stream(
    n_steps: int,
    *,
    n_shards: int = 1,
    loader_interval: int = 4,
    kill_at: int = 0,
    kills: Sequence[tuple[int, str]] = (),
    restart_planner: bool = False,
    loss_adaptive: bool = False,
) -> pd.DataFrame:
    """Run the §3 loop of a real Planner over coyo loaders (``n_shards``
    Source-Parallel shards per source), with shadows synced and
    differential checkpoints taken every step, and return the delivered
    ``(source_id, row_idx)`` stream. Each step pops every loader's staged
    rows, as the Data Constructors would, and raises ``RuntimeError`` if
    they are not the rows the step planned. The mixture is uniform until
    step 3, where the first source takes half the batch, so a step
    planned out of turn changes the stream. Before step ``kill_at`` each
    ``(loader index, path)`` in ``kills`` is killed and recovered by its
    path: a ``"shadow"`` promotion or a checkpoint ``"replay"``; with
    ``restart_planner`` the Planner is replaced by a new one, over a new
    schedule, restored from the latest planner record. With
    ``loss_adaptive`` the mixture is a ``LossAdaptiveSchedule`` instead,
    updated after every step with a loss vector that peaks at source
    ``step % n_sources``."""
    specs = coyo_lite()
    loaders = [
        SourceLoader(s, shard=k, n_shards=n_shards, seed=1, buffer_capacity=2048)
        for s in specs
        for k in range(n_shards)
    ]
    tree = ClientPlaceTree.from_degrees(dp=2)
    n = len(specs)
    stages = [(0, [1.0] * n), (3, [4.0] + [1.0] * (n - 1))]
    schedule = partial(StagedSchedule, stages)
    if loss_adaptive:
        schedule = partial(LossAdaptiveSchedule, n)
    pl = Planner(loaders, tree, schedule(), batch_size=40, method=None)
    shadows = [ShadowLoader(ld) for ld in loaders]
    ckpt = DifferentialCheckpointer(CheckpointStore(), loader_interval=loader_interval)
    stream = []
    for step in range(n_steps):
        if step == kill_at:
            if restart_planner:
                pl = Planner(pl.loaders, tree, schedule(), batch_size=40, method=None)
                pl.restore(ckpt.recover_planner())
            for i, path in kills:
                pl.loaders[i].fail()
                if path == "shadow":
                    pl.loaders[i] = shadows[i].promote()
                elif path == "replay":
                    ckpt.recover_loader(pl.loaders[i])
                else:
                    raise ValueError(f"unknown recovery path {path!r}")
        pl.ensure_buffered(60)
        planned = pl.plan_step().assignments[["source_id", "row_idx"]]
        staged = pd.concat([ld.pop_staged() for ld in pl.loaders])[["source_id", "row_idx"]]
        if not np.array_equal(_sorted_pairs(staged), _sorted_pairs(planned)):
            raise RuntimeError(f"step {step}: staged rows differ from the plan")
        stream.append(planned)
        if loss_adaptive:
            pl.schedule.update(1.0 + 2.0 * (np.arange(n) == step % n))
        for sh in shadows:
            sh.sync()
        ckpt.on_step(step, pl.checkpoint(), pl.loaders)
    return pd.concat(stream, ignore_index=True)


def functional_recovery(
    *, n_steps_before: int = 3, n_steps_after: int = 3, kill_fraction: float = 0.4
) -> list[dict]:
    """Kill a subset of a real loader fleet mid-run and recover it by
    each path; one row per path saying whether the delivered sample
    stream equals an uninterrupted run's stream."""
    n_steps = n_steps_before + n_steps_after
    ref = delivered_stream(n_steps)
    n_kill = max(1, int(kill_fraction * len(coyo_lite())))
    rows = []
    for path in RECOVERY_PATHS:
        kills = [(i, path) for i in range(n_kill)]
        got = delivered_stream(n_steps, kill_at=n_steps_before, kills=kills)
        same, dups = bool(got.equals(ref)), int(got.duplicated().sum())
        rows.append(dict(path=path, killed=n_kill, streams_identical=same,
                         samples_delivered=len(got), duplicates=dups))
    return rows
