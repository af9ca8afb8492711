"""Colocated dataloader baseline (§2.2).

The SPMD pattern of Megatron-LM/DDP/FSDP: a loader instance lives on
every (DP, CP, PP) rank (TP>0 ranks receive via broadcast). Each
instance opens *every* source and, absent coordination, each CP/PP rank
of a DP group independently loads the *complete* group batch just to
slice out its share or read shapes (Fig. 6's parallelism redundancy).

This implementation is functional, not just an accounting model: every
instance maintains its own per-source cursors and ``load_step`` really
materialises the rows, so tests can measure the redundant-access factor
(identical rows fetched ``cp*pp`` times per DP group) directly and
compare it with OVERLORD's constructor-shared path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.placetree import ClientPlaceTree
from repro.data.mixture import MixSchedule
from repro.data.sources import SourceSpec, generate_source_rows


@dataclass
class ColocatedInstance:
    """One rank's loader: per-source cursors + worker processes, each
    worker holding all source file states."""

    rank: int
    dp: int
    specs: Sequence[SourceSpec]
    workers: int
    seed: int = 0

    def __post_init__(self):
        self.cursors = {s.source_id: 0 for s in self.specs}

    def load_group_batch(
        self, counts: np.ndarray, dp_degree: int
    ) -> pd.DataFrame:
        """Load this *DP group's* share of the global batch (the full
        group batch — every CP/PP rank of the group does this
        redundantly). ``counts`` is the per-source global sample quota;
        group g takes the g-th stride of each source's stream."""
        frames = []
        for spec in self.specs:
            total = int(counts[spec.source_id])
            group_n = total // dp_degree + (1 if self.dp < total % dp_degree else 0)
            if group_n == 0:
                continue
            # strided ownership keeps group streams disjoint & deterministic
            start = self.cursors[spec.source_id]
            rows = generate_source_rows(
                spec, start, total, seed=self.seed
            ).iloc[self.dp :: dp_degree]
            frames.append(rows.iloc[:group_n])
            self.cursors[spec.source_id] = start + total
        return (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame(
                columns=["source_id", "source", "row_idx", "text_len",
                         "image_patches", "sample_bytes"]
            )
        )


class ColocatedLoaderSystem:
    """The whole baseline deployment over a ClientPlaceTree."""

    def __init__(
        self,
        tree: ClientPlaceTree,
        specs: Sequence[SourceSpec],
        schedule: MixSchedule,
        *,
        workers: int = 4,
        seed: int = 0,
    ):
        self.tree = tree
        self.specs = list(specs)
        self.schedule = schedule
        self.workers = workers
        self.step = 0
        self.instances = [
            ColocatedInstance(
                rank=c.rank,
                dp=c.coords.get("DP", 0),
                specs=self.specs,
                workers=workers,
                seed=seed,
            )
            for c in tree.clients
            if c.coords.get("TP", 0) == 0  # TP0 broadcasts to its group
        ]

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    def load_step(self, batch_size: int) -> dict[int, pd.DataFrame]:
        """All instances load the step's batch; returns rank → loaded
        rows. Rows for a DP group are loaded once per CP x PP rank —
        the redundancy OVERLORD removes."""
        counts = self.schedule.sample_counts(self.step, batch_size)
        out = {
            inst.rank: inst.load_group_batch(counts, self.tree.dims["DP"])
            for inst in self.instances
        }
        self.step += 1
        return out

    def redundant_access_factor(self, loaded: dict[int, pd.DataFrame]) -> float:
        """(total rows fetched) / (distinct rows fetched) — cp*pp for
        this baseline, 1.0 for OVERLORD's constructor path."""
        total = sum(len(df) for df in loaded.values())
        distinct = len(
            pd.concat(loaded.values(), ignore_index=True)
            .drop_duplicates(["source_id", "row_idx"])
        ) if total else 0
        return total / distinct if distinct else 1.0
