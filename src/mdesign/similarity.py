"""Task-similarity tracking: static initialization plus online Bayes updates.

The similarity view is a normalized weight per benchmark task.  It starts
from rank correlation of task statistics (or uniform), then after every
evaluated move each task's weight is scaled by the Gaussian likelihood of the
observed gain under that task's transfer model -- a through-origin linear fit
with residual variance over a sliding window of recent (observed, retrieved)
gain pairs -- and renormalized.

Everything after the weave works in task order: ``update_transfer`` and
``bayes_update`` take the chosen move's per-task gains as one sequence whose
entry ``j`` belongs to ``transfers.tasks[j]`` (None: the task had nothing to
contribute), and ``bayes_update`` needs a view whose tasks are
``transfers.tasks`` in that order.  ``SimilarityError`` rejects a sequence of
another length and a view in another order.

All tasks' windows live in one ``(tasks, window, 2)`` array, pushed and
refit once per evaluated move.  The fits keep the bits of a per-task fit:
each task's dot products are its own strided ``ddot`` calls, and the
residual sums are per-row pairwise sums over tasks that share a pair count.
Likelihoods are computed per task with ``math.exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as _sps

from .store import KnowledgeStore

__all__ = [
    "SimilarityError",
    "SimilarityView",
    "TransferWindow",
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


class TransferWindow:
    """Sliding-window through-origin fits of observed gains, one per benchmark, stacked.

    Row ``j`` fits benchmark ``tasks[j]``: ``slope[j]`` rescales its gains
    onto the target task and ``noise_var[j]`` is the mean squared residual of
    that fit, clamped below by ``noise_floor``.  Until a task's window holds
    two pairs, and whenever its fit overflows to a slope or variance that is
    not finite, the task stays at the neutral cold-start state: slope 1 and
    an inflated variance (``noise_floor * COLD_START_VAR_SCALE``) so its
    likelihoods are nearly flat and cannot swing the posterior.

    The windows are one preallocated ``(tasks, window_size, 2)`` array.  A
    task whose window holds ``n`` pairs keeps them in its last ``n`` rows,
    oldest first, so every push shifts the pushed tasks' rows up by one and
    writes the new pairs into the last row.

    Exactness: each fit has the bits of a fit of that task's pairs alone,
    freshly built into an ``(n, 2)`` array.  Each task's two dot products
    are its own ``dot`` calls on the stride-2 columns of its rows, so they
    take the same strided BLAS ``ddot`` path over the same operands
    (contiguous columns would take another path, with other bits).  The
    residuals of all tasks that hold ``n`` pairs are one C-contiguous
    ``(tasks, n)`` block, and its sum of squares over ``axis=1`` sums each
    row pairwise, as a 1-D sum of that row does.  ``bayes_update`` then
    evaluates each task's likelihood with ``math.exp``.
    """

    __slots__ = (
        "tasks", "window_size", "noise_floor", "slope", "noise_var", "_pairs", "_counts", "_columns"
    )

    def __init__(self, tasks: Sequence[str], window_size: int, noise_floor: float = NOISE_FLOOR):
        if window_size < 2:
            raise SimilarityError(f"window size must be >= 2, got {window_size}")
        if not (math.isfinite(noise_floor) and noise_floor > 0):
            raise SimilarityError("noise floor must be a positive finite value")
        self.tasks = tuple(tasks)
        self.window_size = window_size
        self.noise_floor = noise_floor
        self.slope = [1.0] * len(self.tasks)
        self.noise_var = [noise_floor * COLD_START_VAR_SCALE] * len(self.tasks)
        self._pairs = np.zeros((len(self.tasks), window_size, 2))
        self._counts = [0] * len(self.tasks)
        # each task's whole observed and retrieved columns as stride-2 views, made on
        # the first push: at set-up they cost more than the rest of the constructor
        self._columns: list[tuple[np.ndarray, np.ndarray]] | None = None

    def window(self, task_id: str) -> list[tuple[float, float]]:
        """The task's ``(observed, retrieved)`` pairs, oldest first."""
        j = self.tasks.index(task_id)
        rows = self._pairs[j, self.window_size - self._counts[j] :]
        return [tuple(pair) for pair in rows.tolist()]


def update_transfer(
    transfers: TransferWindow, observed: float, retrieved: Sequence[float | None]
) -> TransferWindow:
    """Push ``(observed, retrieved[j])`` for every task ``j`` with a value, and refit those tasks.

    ``retrieved[j]`` is the gain of ``transfers.tasks[j]``; a task whose entry
    is None is not pushed and keeps its fit.  A full window drops its oldest
    pair.  Overflows inside the fit are expected (a fit that overflows keeps
    the cold-start state), so they raise no numpy warning.
    """
    if len(retrieved) != len(transfers.tasks):
        raise SimilarityError(f"{len(retrieved)} retrieved gains for {len(transfers.tasks)} tasks")
    observed = float(observed)
    rows = [j for j, value in enumerate(retrieved) if value is not None]
    values = [float(retrieved[j]) for j in rows]
    if not (math.isfinite(observed) and all(map(math.isfinite, values))):
        raise SimilarityError(f"non-finite observation: {observed!r} against {values!r}")
    if not rows:
        return transfers
    pairs, counts, size = transfers._pairs, transfers._counts, transfers.window_size
    columns = transfers._columns
    if columns is None:
        columns = transfers._columns = list(zip(pairs[:, :, 0], pairs[:, :, 1]))
    pushed = slice(None) if len(rows) == len(counts) else rows
    pairs[pushed, :-1] = pairs[pushed, 1:]
    pairs[pushed, -1, 0] = observed
    pairs[pushed, -1, 1] = values
    groups: dict[int, tuple[list[int], list[float]]] = {}  # pair count -> rows, slopes
    with np.errstate(over="ignore", invalid="ignore"):
        for j in rows:
            n = counts[j] = min(counts[j] + 1, size)
            if n < 2:
                continue
            observed_col, retrieved_col = columns[j]
            if n < size:
                observed_col, retrieved_col = observed_col[size - n :], retrieved_col[size - n :]
            denom = float(retrieved_col.dot(retrieved_col))
            fit = float(observed_col.dot(retrieved_col)) / denom if denom > 0.0 else 1.0
            group = groups.setdefault(n, ([], []))
            group[0].append(j)
            group[1].append(fit)
        for n, (at, slopes) in groups.items():
            block = pairs[pushed if len(at) == len(rows) else at, size - n :]
            resid = block[:, :, 0] - np.array(slopes)[:, None] * block[:, :, 1]
            variances = (np.add.reduce(resid * resid, axis=1) / n).tolist()
            for j, fit, var in zip(at, slopes, variances):
                if math.isfinite(fit) and math.isfinite(var):
                    transfers.slope[j], transfers.noise_var[j] = fit, max(var, transfers.noise_floor)
                else:
                    transfers.slope[j] = 1.0
                    transfers.noise_var[j] = transfers.noise_floor * COLD_START_VAR_SCALE
    return transfers


def gaussian_likelihood(observed: float, retrieved: float, slope: float, variance: float) -> float:
    """Normal density of the observed gain around ``slope * retrieved``."""
    if not (math.isfinite(variance) and variance > 0.0):
        raise SimilarityError(f"variance must be positive and finite, got {variance!r}")
    if not math.isfinite(slope):
        raise SimilarityError(f"slope must be finite, got {slope!r}")
    resid = float(observed) - slope * float(retrieved)
    return math.exp(-(resid * resid) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)


def bayes_update(
    view: SimilarityView,
    transfers: TransferWindow,
    observed: float,
    retrieved: Sequence[float | None],
) -> SimilarityView:
    """One posterior step: weight * likelihood per task, then renormalize.

    ``view`` and ``transfers`` list the same tasks in the same order, and
    ``retrieved[j]`` is the gain task ``transfers.tasks[j]`` contributed for
    the executed move.  A task whose entry is None had nothing to contribute
    and keeps a neutral likelihood (the mean of the computed ones) so missing
    coverage neither rewards nor punishes it.  If every likelihood underflows
    to zero the prior is kept unchanged.  Always returns a fresh view with
    ``iteration`` advanced by one.
    """
    if not math.isfinite(observed):
        raise SimilarityError(f"observed gain must be finite, got {observed!r}")
    if tuple(view.weights) != transfers.tasks:
        raise SimilarityError(f"view tasks {list(view.weights)} are not {list(transfers.tasks)}")
    if len(retrieved) != len(transfers.tasks):
        raise SimilarityError(f"{len(retrieved)} retrieved gains for {len(transfers.tasks)} tasks")
    likelihoods = [
        None if value is None else gaussian_likelihood(observed, value, slope, variance)
        for value, slope, variance in zip(retrieved, transfers.slope, transfers.noise_var)
    ]
    computed = [lk for lk in likelihoods if lk is not None]
    neutral = (sum(computed) / len(computed)) if computed else 1.0
    raw = [
        w * (lk if lk is not None else neutral) for w, lk in zip(view.weights.values(), likelihoods)
    ]
    total = sum(raw)
    if total <= 0.0 or not math.isfinite(total):
        # all mass vanished (likelihood underflow): keep the prior
        return SimilarityView(dict(view.weights), view.iteration + 1)
    return SimilarityView({tid: w / total for tid, w in zip(view.weights, raw)}, view.iteration + 1)


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
