"""Task-similarity tracking: static initialization plus online Bayes updates.

The similarity view is a normalized weight per benchmark task.  It starts
from rank correlation of task statistics (or uniform), then after every
evaluated move each task's weight is scaled by the Gaussian likelihood of the
observed gain under that task's transfer model -- a through-origin linear fit
with residual variance, refit after every push over a sliding window of
recent (observed, retrieved) gain pairs held in a preallocated array -- and
renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import stats as _sps

from .store import KnowledgeStore

__all__ = [
    "SimilarityError",
    "ObservationPair",
    "SimilarityView",
    "TransferModel",
    "kendall_tau",
    "gaussian_likelihood",
    "update_transfer",
    "bayes_update",
    "init_similarity_kendall",
    "uniform_similarity",
    "explicit_similarity",
]

NOISE_FLOOR = 1e-6
COLD_START_VAR_SCALE = 1e3  # variance multiplier before the window holds 2 pairs


class SimilarityError(ValueError):
    """Invalid similarity inputs (schema mismatch, non-finite values, empty view)."""


class ObservationPair(NamedTuple):
    """One aligned observation: gain seen on the target task vs. a benchmark."""

    observed: float  # gain measured on the task being refined
    retrieved: float  # gain retrieved (or predicted) for the benchmark task


@dataclass(frozen=True)
class SimilarityView:
    """Normalized per-task weights at some update step."""

    weights: dict[str, float]
    iteration: int = 0

    def __post_init__(self) -> None:
        if not self.weights:
            raise SimilarityError("similarity view needs at least one task")
        for tid, w in self.weights.items():
            if not math.isfinite(w) or w < 0.0:
                raise SimilarityError(f"task {tid!r}: weight {w!r} must be finite and >= 0")

    def total(self) -> float:
        return sum(self.weights.values())


class TransferModel:
    """Sliding-window through-origin fit of observed gains against one benchmark.

    ``slope`` rescales the benchmark's gains onto the target task and
    ``noise_var`` is the mean squared residual of that fit, clamped below by
    ``noise_floor``.  Until the window holds two pairs, and whenever the fit
    overflows to a slope or variance that is not finite, the model stays at
    the neutral cold-start state: slope 1 and an inflated variance
    (``noise_floor * COLD_START_VAR_SCALE``) so those likelihoods are nearly
    flat and cannot swing the posterior.

    The window is a preallocated ``(window_size, 2)`` array whose first
    ``len(window)`` rows hold the pairs oldest first.  The fit reads its
    observed and retrieved gains as the stride-2 columns of those rows, the
    layout ``np.asarray`` gives a list of pairs, so both dot products take
    the same strided BLAS ``ddot`` path and the residual sum the same
    pairwise summation over the same operands as a fit of a freshly built
    array: the fit's bits depend only on the pairs in the window.
    """

    __slots__ = ("window_size", "noise_floor", "slope", "noise_var", "_pairs", "_count")

    def __init__(self, window_size: int, noise_floor: float = NOISE_FLOOR):
        if window_size < 2:
            raise SimilarityError(f"window size must be >= 2, got {window_size}")
        if not (math.isfinite(noise_floor) and noise_floor > 0):
            raise SimilarityError("noise floor must be a positive finite value")
        self.window_size = window_size
        self.noise_floor = noise_floor
        self.slope = 1.0
        self.noise_var = noise_floor * COLD_START_VAR_SCALE
        self._pairs = np.empty((window_size, 2))
        self._count = 0

    @property
    def window(self) -> list[tuple[float, float]]:
        """The ``(observed, retrieved)`` pairs in the window, oldest first."""
        return [tuple(pair) for pair in self._pairs[: self._count].tolist()]

    def _refit(self) -> None:
        n = self._count
        slope, noise_var = 1.0, self.noise_floor * COLD_START_VAR_SCALE
        if n >= 2:
            pairs = self._pairs[:n]
            observed, retrieved = pairs[:, 0], pairs[:, 1]
            denom = float(np.dot(retrieved, retrieved))
            fit = float(np.dot(observed, retrieved) / denom) if denom > 0.0 else 1.0
            resid = observed - fit * retrieved
            var = float((resid * resid).sum() / n)
            if math.isfinite(fit) and math.isfinite(var):
                slope, noise_var = fit, max(var, self.noise_floor)
        self.slope, self.noise_var = slope, noise_var


def update_transfer(model: TransferModel, pair: ObservationPair) -> TransferModel:
    """Push one (observed, retrieved) pair and refit slope and variance in place.

    A full window drops its oldest pair: the older rows shift up one place
    and the new pair takes the last row.
    """
    observed, retrieved = float(pair[0]), float(pair[1])
    if not (math.isfinite(observed) and math.isfinite(retrieved)):
        raise SimilarityError(f"non-finite observation pair {pair!r}")
    pairs, n = model._pairs, model._count
    if n == model.window_size:
        pairs[:-1] = pairs[1:]
        n -= 1
    pairs[n] = observed, retrieved
    model._count = n + 1
    model._refit()
    return model


def gaussian_likelihood(pair: ObservationPair, slope: float, variance: float) -> float:
    """Normal density of the observed gain around ``slope * retrieved``."""
    if not (math.isfinite(variance) and variance > 0.0):
        raise SimilarityError(f"variance must be positive and finite, got {variance!r}")
    if not math.isfinite(slope):
        raise SimilarityError(f"slope must be finite, got {slope!r}")
    observed, retrieved = float(pair[0]), float(pair[1])
    resid = observed - slope * retrieved
    return math.exp(-(resid * resid) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)


def bayes_update(
    view: SimilarityView,
    transfers: Mapping[str, TransferModel],
    observed: float,
    retrieved: Mapping[str, float | None],
) -> SimilarityView:
    """One posterior step: weight * likelihood per task, then renormalize.

    ``retrieved`` maps each task to the gain it contributed for the executed
    move; tasks mapping to None had nothing to contribute and keep a neutral
    likelihood (the mean of the computed ones) so missing coverage neither
    rewards nor punishes them.  If every likelihood underflows to zero the
    prior is kept unchanged.  Always returns a fresh view with ``iteration``
    advanced by one.
    """
    if not math.isfinite(observed):
        raise SimilarityError(f"observed gain must be finite, got {observed!r}")
    likelihoods: dict[str, float | None] = {}
    computed: list[float] = []
    for tid in view.weights:
        value = retrieved.get(tid)
        if value is None:
            likelihoods[tid] = None
            continue
        model = transfers[tid]
        lk = gaussian_likelihood(ObservationPair(observed, float(value)), model.slope, model.noise_var)
        likelihoods[tid] = lk
        computed.append(lk)
    neutral = (sum(computed) / len(computed)) if computed else 1.0
    raw = {
        tid: view.weights[tid] * (lk if lk is not None else neutral)
        for tid, lk in likelihoods.items()
    }
    total = sum(raw.values())
    if total <= 0.0 or not math.isfinite(total):
        # all mass vanished (likelihood underflow): keep the prior
        return SimilarityView(dict(view.weights), view.iteration + 1)
    return SimilarityView({tid: w / total for tid, w in raw.items()}, view.iteration + 1)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation in [-1, 1].

    Requires two equal-length vectors with at least two entries; degenerate
    inputs (either vector constant) score 0 rather than propagating NaN.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise SimilarityError("kendall_tau needs two equal-length 1-D vectors")
    if x.size < 2:
        raise SimilarityError("kendall_tau needs at least two entries")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SimilarityError("kendall_tau inputs must be finite")
    tau = _sps.kendalltau(x, y).statistic
    return 0.0 if math.isnan(tau) else float(tau)


def init_similarity_kendall(
    target_stats: Mapping[str, float], store: KnowledgeStore
) -> SimilarityView:
    """Static similarity from task statistics.

    Each benchmark scores the Kendall correlation between its statistics
    vector and the target task's, mapped from [-1, 1] to [0, 1]; scores are
    normalized into weights.  If every score is zero (all perfectly
    anti-correlated) the view falls back to uniform.
    """
    if not store.tasks:
        raise SimilarityError("store has no benchmark tasks")
    names = store.stat_names
    if len(names) < 2:
        raise SimilarityError("need at least two named statistics for rank correlation")
    missing = sorted(set(names) - set(target_stats))
    extra = sorted(set(target_stats) - set(names))
    if missing or extra:
        raise SimilarityError(
            f"statistic schema mismatch: missing {missing}, unexpected {extra}"
        )
    target = [float(target_stats[n]) for n in names]
    scores = {
        tid: (kendall_tau(target, rec.stats) + 1.0) / 2.0 for tid, rec in store.tasks.items()
    }
    total = sum(scores.values())
    if total <= 0.0:
        return uniform_similarity(store.task_ids)
    return SimilarityView({tid: s / total for tid, s in scores.items()}, iteration=0)


def uniform_similarity(task_ids: Sequence[str]) -> SimilarityView:
    """Equal weight on every task."""
    ids = list(task_ids)
    if not ids:
        raise SimilarityError("need at least one task")
    w = 1.0 / len(ids)
    return SimilarityView({tid: w for tid in ids}, iteration=0)


def explicit_similarity(weights: Mapping[str, float]) -> SimilarityView:
    """Normalize caller-supplied nonnegative weights into a view."""
    if not weights:
        raise SimilarityError("need at least one task")
    total = sum(weights.values())
    if total <= 0.0 or not math.isfinite(total):
        raise SimilarityError("explicit weights must have positive finite total")
    return SimilarityView({tid: float(w) / total for tid, w in weights.items()}, iteration=0)
