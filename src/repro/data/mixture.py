"""Data-mixture schedules (``mix(schedule)`` input, §4.2).

A schedule maps a training step to normalised per-source sampling
weights. The paper requires both *scheduled* adjustment (staged
training, warmup, curriculum learning's easy-to-hard progression) and
*dynamic* adaptation to runtime metrics (loss/entropy); all are
implemented here as small, deterministic policies over the source list.

The Planner consumes a schedule through :meth:`MixSchedule.weights` and
feeds the resulting weights both to plan generation (which sources to
sample this step) and to the mixture-driven AutoScaler (§5.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def _normalise(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("mixture weights must be non-negative")
    s = w.sum()
    if s <= 0:
        raise ValueError("mixture weights must not all be zero")
    return w / s


class MixSchedule:
    """Base schedule: subclasses override :meth:`weights`."""

    def __init__(self, n_sources: int):
        if n_sources <= 0:
            raise ValueError("n_sources must be positive")
        self.n_sources = n_sources

    def weights(self, step: int) -> np.ndarray:
        raise NotImplementedError

    def checkpoint(self) -> dict:
        """State that changes while training runs; none for a schedule
        that is a function of the step alone."""
        return {}

    def restore(self, state: dict) -> None:
        pass

    def sample_counts(self, step: int, batch_size: int, seed: int = 0) -> np.ndarray:
        """Deterministic largest-remainder apportionment of ``batch_size``
        samples to sources at this step — the per-step loading quota the
        Planner hands to Source Loaders."""
        w = self.weights(step)
        exact = w * batch_size
        counts = np.floor(exact).astype(np.int64)
        short = batch_size - counts.sum()
        if short > 0:
            # break remainder ties by a step-seeded shuffle for fairness
            rem = exact - counts
            g = np.random.default_rng(seed * 1_000_003 + step)
            order = np.lexsort((g.random(self.n_sources), -rem))
            counts[order[:short]] += 1
        return counts


class ConstantSchedule(MixSchedule):
    """Static mixing ratios for the whole run."""

    def __init__(self, weights: Sequence[float]):
        super().__init__(len(weights))
        self._w = _normalise(np.asarray(weights))

    def weights(self, step: int) -> np.ndarray:
        return self._w


class StagedSchedule(MixSchedule):
    """Piecewise-constant ratios: ``stages`` is [(start_step, weights), ...]
    sorted by start_step; stage i applies from its start until the next."""

    def __init__(self, stages: Sequence[tuple[int, Sequence[float]]]):
        if not stages:
            raise ValueError("need at least one stage")
        starts = [s for s, _ in stages]
        if starts != sorted(starts) or starts[0] != 0:
            raise ValueError("stages must be sorted and start at step 0")
        if len({len(w) for _, w in stages}) != 1:
            raise ValueError("stage weight lengths differ")
        super().__init__(len(stages[0][1]))
        self._stages = [(s, _normalise(np.asarray(w))) for s, w in stages]

    def weights(self, step: int) -> np.ndarray:
        out = self._stages[0][1]
        for start, w in self._stages:
            if step >= start:
                out = w
        return out


class WarmupSchedule(MixSchedule):
    """Linear interpolation from ``start`` to ``end`` weights over
    ``warmup_steps`` — the sequence-length-warmup pattern [33]."""

    def __init__(self, start: Sequence[float], end: Sequence[float], warmup_steps: int):
        if len(start) != len(end):
            raise ValueError("start/end weight lengths differ")
        if warmup_steps <= 0:
            raise ValueError("warmup_steps must be positive")
        super().__init__(len(start))
        self._a = _normalise(np.asarray(start))
        self._b = _normalise(np.asarray(end))
        self._n = warmup_steps

    def weights(self, step: int) -> np.ndarray:
        t = min(max(step, 0), self._n) / self._n
        return _normalise((1 - t) * self._a + t * self._b)


class CurriculumSchedule(MixSchedule):
    """Easy-to-hard progression [50]: sources carry a difficulty score in
    [0, 1]; the share of hard sources grows with training progress."""

    def __init__(self, difficulty: Sequence[float], total_steps: int, sharpness: float = 4.0):
        super().__init__(len(difficulty))
        d = np.asarray(difficulty, dtype=np.float64)
        if ((d < 0) | (d > 1)).any():
            raise ValueError("difficulty scores must lie in [0, 1]")
        self._d = d
        self._total = max(1, total_steps)
        self._k = sharpness

    def weights(self, step: int) -> np.ndarray:
        t = min(max(step, 0), self._total) / self._total
        # logistic gate: early training suppresses hard sources
        gate = 1.0 / (1.0 + np.exp(self._k * (self._d - t) * 2.0 - self._k * 0.1))
        return _normalise(gate + 1e-6)


@dataclass
class LossAdaptiveSchedule(MixSchedule):
    """Dynamic mixing driven by per-source loss (skill-it / ADO style
    [10, 28]): sources with higher recent loss are upweighted via a
    softmax with temperature, smoothed by an EMA."""

    n_sources: int
    temperature: float = 1.0
    ema: float = 0.9
    _loss: np.ndarray = field(init=False)

    def __post_init__(self):
        MixSchedule.__init__(self, self.n_sources)
        self._loss = np.ones(self.n_sources, dtype=np.float64)

    def update(self, per_source_loss: Sequence[float]) -> None:
        loss = np.asarray(per_source_loss, dtype=np.float64)
        if loss.shape != (self.n_sources,):
            raise ValueError("loss vector length mismatch")
        self._loss = self.ema * self._loss + (1 - self.ema) * loss

    def checkpoint(self) -> dict:
        return {"loss": self._loss.copy()}

    def restore(self, state: dict) -> None:
        self._loss = np.array(state["loss"], dtype=np.float64)

    def weights(self, step: int) -> np.ndarray:
        z = self._loss / max(self.temperature, 1e-9)
        z = z - z.max()
        return _normalise(np.exp(z))


class MovingAverageTracker:
    """Planner-side moving average of sampling weights (§5.2): reports,
    per source, how many *consecutive* recent intervals the average has
    stayed above (or below) a threshold — the AutoScaler trigger."""

    def __init__(self, n_sources: int, window: int = 8):
        self.n_sources = n_sources
        self.window = max(1, window)
        self._hist: list[np.ndarray] = []
        self._above: np.ndarray = np.zeros(n_sources, dtype=np.int64)
        self._below: np.ndarray = np.zeros(n_sources, dtype=np.int64)

    def observe(self, weights: np.ndarray, hi: float, lo: float) -> None:
        self._hist.append(np.asarray(weights, dtype=np.float64))
        if len(self._hist) > self.window:
            self._hist.pop(0)
        ma = self.moving_average()
        self._above = np.where(ma > hi, self._above + 1, 0)
        self._below = np.where(ma < lo, self._below + 1, 0)

    def moving_average(self) -> np.ndarray:
        if not self._hist:
            return np.zeros(self.n_sources)
        return np.mean(np.stack(self._hist), axis=0)

    def consecutive_above(self) -> np.ndarray:
        return self._above.copy()

    def consecutive_below(self) -> np.ndarray:
        return self._below.copy()

    def checkpoint(self) -> dict:
        """Window history (``<= window x n_sources`` weights) and the
        above/below counters — everything future triggers depend on."""
        hist = np.stack(self._hist) if self._hist else np.empty((0, self.n_sources))
        return {"hist": hist, "above": self._above.copy(), "below": self._below.copy()}

    def restore(self, state: dict) -> None:
        self._hist = list(np.array(state["hist"], dtype=np.float64))
        self._above = np.array(state["above"], dtype=np.int64)
        self._below = np.array(state["below"], dtype=np.int64)
