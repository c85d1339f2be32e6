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

All tasks' windows live in one zero-filled ``(tasks, window, 2)`` array,
pushed and refit once per evaluated move by three row reductions over the
pushed tasks' rows.  A fit agrees with a fit of that task's pairs alone up
to rounding (``TransferWindow`` gives the bound).  Likelihoods are computed
per task with ``math.exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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

    def __post_init__(self) -> None:
        if not self.weights:
            raise SimilarityError("similarity view needs at least one task")
        for tid, w in self.weights.items():
            if not math.isfinite(w) or w < 0.0:
                raise SimilarityError(f"task {tid!r}: weight {w!r} must be finite and >= 0")


class TransferWindow:
    """Sliding-window through-origin fits of observed gains, one per benchmark, stacked.

    Row ``j`` fits benchmark ``tasks[j]``: ``slope[j]`` rescales its gains
    onto the target task and ``noise_var[j]`` is the mean squared residual of
    that fit, clamped below by ``NOISE_FLOOR``.  Until a task's window holds
    two pairs, and whenever its fit overflows to a slope or variance that is
    not finite, the task stays at the neutral cold-start state: slope 1 and
    an inflated variance (``NOISE_FLOOR * COLD_START_VAR_SCALE``) so its
    likelihoods are nearly flat and cannot swing the posterior.

    The windows are one zero-filled ``(tasks, window_size, 2)`` array.  A
    task whose window holds ``n`` pairs keeps them in its last ``n`` rows,
    oldest first, and the rows before them stay +0.0, so every push shifts
    the pushed tasks' rows up by one and writes the new pairs into the last
    row.  Zero rows add nothing to a fit's sums, so each task is fit over its
    whole window row, with ``n`` only as the divisor, and its fit does not
    depend on what other tasks hold.

    Error bound: each of a fit's three sums adds ``n`` products, so it is off
    from the exact sum by at most ``n * eps`` times the sum of the products'
    magnitudes, for ``eps`` the float64 machine epsilon (Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 3.1).  Two evaluations of
    a fit in different summation orders, this one and a per-task loop's,
    differ in slope by at most ``2 * n * eps * sum|o_i r_i| / sum r_i^2`` and
    in variance by at most ``2 * n * eps * mean((|o_i| + |slope * r_i|)^2)``.
    """

    __slots__ = ("tasks", "window_size", "slope", "noise_var", "_pairs", "_counts")

    def __init__(self, tasks: Sequence[str], window_size: int):
        is_int = isinstance(window_size, (int, np.integer)) and not isinstance(window_size, bool)
        if not is_int or window_size < 2:
            raise SimilarityError(f"window size must be an integer >= 2, got {window_size!r}")
        self.tasks = tuple(tasks)
        self.window_size = window_size
        self.slope = [1.0] * len(self.tasks)
        self.noise_var = [NOISE_FLOOR * COLD_START_VAR_SCALE] * len(self.tasks)
        self._counts = [0] * len(self.tasks)
        self._pairs = np.zeros((len(self.tasks), window_size, 2))

    def window(self, task_id: str) -> list[tuple[float, float]]:
        """The task's ``(observed, retrieved)`` pairs, oldest first; SimilarityError if unknown."""
        if task_id not in self.tasks:
            raise SimilarityError(f"unknown task {task_id!r}")
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
    pushed = slice(None) if len(rows) == len(counts) else rows
    pairs[pushed, :-1] = pairs[pushed, 1:]
    pairs[pushed, -1, 0] = observed
    pairs[pushed, -1, 1] = values
    block = pairs[pushed]
    observed_rows, retrieved_rows = block[:, :, 0], block[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        denoms = np.einsum("ij,ij->i", retrieved_rows, retrieved_rows)
        dots = np.einsum("ij,ij->i", observed_rows, retrieved_rows)
        slopes = np.divide(dots, denoms, out=np.ones_like(denoms), where=denoms > 0.0)
        resid = observed_rows - slopes[:, None] * retrieved_rows
        sums = np.einsum("ij,ij->i", resid, resid)
    for j, fit, total in zip(rows, slopes.tolist(), sums.tolist()):
        n = counts[j] = min(counts[j] + 1, size)
        if n < 2:
            continue
        var = total / n
        if math.isfinite(fit) and math.isfinite(var):
            transfers.slope[j], transfers.noise_var[j] = fit, max(var, NOISE_FLOOR)
        else:
            transfers.slope[j] = 1.0
            transfers.noise_var[j] = NOISE_FLOOR * COLD_START_VAR_SCALE
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
    to zero the prior is kept unchanged.  Always returns a fresh view.
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
        return SimilarityView(dict(view.weights))
    return SimilarityView({tid: w / total for tid, w in zip(view.weights, raw)})


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall rank correlation (tau-b) in [-1, 1].

    Requires two equal-length vectors with at least two entries; degenerate
    inputs (either vector constant) score 0 rather than propagating NaN.
    Every pair is compared (quadratic: for short statistics vectors), and
    ``s / sqrt(nx) / sqrt(ny)``, for ``s`` concordant minus discordant pairs
    and ``nx``, ``ny`` the pairs untied in x and in y, are scipy's tau-b float
    operations, so the result has the bits of ``scipy.stats.kendalltau``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise SimilarityError("kendall_tau needs two equal-length 1-D vectors")
    if x.size < 2:
        raise SimilarityError("kendall_tau needs at least two entries")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise SimilarityError("kendall_tau inputs must be finite")
    above_x, above_y = np.greater.outer(x, x), np.greater.outer(y, y)  # [i, j]: x[i] > x[j]
    nx, ny = int(np.count_nonzero(above_x)), int(np.count_nonzero(above_y))
    if nx == 0 or ny == 0:
        return 0.0
    s = int(np.count_nonzero(above_x & above_y)) - int(np.count_nonzero(above_x & above_y.T))
    tau = s / np.sqrt(nx) / np.sqrt(ny)
    return float(min(1.0, max(-1.0, tau)))


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
    return SimilarityView({tid: s / total for tid, s in scores.items()})


def uniform_similarity(task_ids: Sequence[str]) -> SimilarityView:
    """Equal weight on every task."""
    ids = list(task_ids)
    if not ids:
        raise SimilarityError("need at least one task")
    w = 1.0 / len(ids)
    return SimilarityView({tid: w for tid in ids})


def explicit_similarity(weights: Mapping[str, float]) -> SimilarityView:
    """Normalize caller-supplied nonnegative weights into a view."""
    if not weights:
        raise SimilarityError("need at least one task")
    total = sum(weights.values())
    if total <= 0.0 or not math.isfinite(total):
        raise SimilarityError("explicit weights must have positive finite total")
    return SimilarityView({tid: float(w) / total for tid, w in weights.items()})
