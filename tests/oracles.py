"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written the slow, obvious way (python loops,
math.fsum, scipy reference functions) so the package implementations are
checked against a second, independent route.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy import stats as _sps

from mdesign.similarity import COLD_START_VAR_SCALE, NOISE_FLOOR, SimilarityError, SimilarityView
from mdesign.space import Modification
from mdesign.store import GainRecord


def brute_kendall_tau(x, y) -> float:
    """Tie-corrected (tau-b) Kendall correlation by O(n^2) pair counting."""
    n = len(x)
    concordant = discordant = 0
    ties_x = ties_y = 0
    for i, j in combinations(range(n), 2):
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif (dx > 0) == (dy > 0):
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        return 0.0
    return (concordant - discordant) / denom


def scipy_kendall_tau(x, y) -> float:
    """scipy's tau-b statistic, with the NaN of a constant vector read as 0.0."""
    tau = _sps.kendalltau(x, y).statistic
    return 0.0 if math.isnan(tau) else float(tau)


def brute_gaussian(observed: float, retrieved: float, slope: float, variance: float) -> float:
    """Normal density written via math.e and explicit squaring."""
    diff = observed - slope * retrieved
    return math.e ** (-(diff**2) / (2 * variance)) / math.sqrt(2 * math.pi * variance)


def brute_slope_and_variance(window, floor: float) -> tuple[float, float]:
    """Through-origin least squares + clamped mean squared residual, via loops."""
    if len(window) < 2:
        return 1.0, floor * 1e3
    sum_ui = math.fsum(u * i for u, i in window)
    sum_ii = math.fsum(i * i for _, i in window)
    slope = sum_ui / sum_ii if sum_ii > 0 else 1.0
    residuals = [(u - slope * i) ** 2 for u, i in window]
    return slope, max(math.fsum(residuals) / len(residuals), floor)


def brute_posterior(
    prior: dict[str, float],
    models: dict[str, tuple[float, float]],  # task -> (slope, variance)
    observed: float,
    retrieved: dict[str, float | None],
) -> dict[str, float]:
    """Independent Bayes step: likelihood * prior, neutral fill, renormalize."""
    likelihoods: dict[str, float | None] = {}
    computed = []
    for tid in prior:
        value = retrieved.get(tid)
        if value is None:
            likelihoods[tid] = None
        else:
            slope, variance = models[tid]
            lk = brute_gaussian(observed, value, slope, variance)
            likelihoods[tid] = lk
            computed.append(lk)
    neutral = math.fsum(computed) / len(computed) if computed else 1.0
    raw = {
        tid: prior[tid] * (lk if lk is not None else neutral)
        for tid, lk in likelihoods.items()
    }
    total = math.fsum(raw.values())
    if total <= 0 or not math.isfinite(total):
        return dict(prior)
    return {tid: value / total for tid, value in raw.items()}


def brute_wasserstein(a, b) -> float:
    """Reference 1-D Wasserstein via scipy."""
    return float(_sps.wasserstein_distance(a, b))


def brute_weave(weights: dict[str, float], contributions: dict[str, float | None]) -> float:
    """Expectation form of the woven score with math.fsum accumulation."""
    terms = [
        weights[tid] * value
        for tid, value in sorted(contributions.items())
        if value is not None
    ]
    return math.fsum(terms)


def rel_err(actual: float, expected: float, floor: float = 1e-300) -> float:
    """Relative error with a tiny absolute floor for near-zero expectations."""
    scale = max(abs(expected), abs(actual), floor)
    return abs(actual - expected) / scale


def reference_neighbors(space, design):
    """Every one-hop move out of ``design``: a loop over dimensions, then candidates."""
    space.validate(design)
    out = []
    for d, dim in enumerate(space.dimensions):
        cur = design[d]
        for c in range(len(dim.candidates)):
            if c == cur:
                continue
            out.append((Modification(d, cur, c), design[:d] + (c,) + design[d + 1 :]))
    return out


def reference_derive_gains(store, task_id):
    """A task's measured edges, one neighbor list per measured design, lower id first."""
    perfs = store.performances(task_id)
    out = []
    for arch_from in sorted(perfs):
        for _, nbr in reference_neighbors(store.space, store.arch_tuple(arch_from)):
            arch_to = store.arch_id_of(nbr)
            if arch_to is None or arch_to not in perfs or arch_to <= arch_from:
                continue
            out.append(GainRecord(task_id, arch_from, arch_to, perfs[arch_to] - perfs[arch_from]))
    return out


def reference_shared_edge_gains(store, task_a, task_b):
    """Two tasks' gains on their shared edges: task a's records joined to a dict of task b's."""
    gains_b = {(r.arch_from, r.arch_to): r.gain for r in store.derive_gains(task_b)}
    left, right = [], []
    for rec in store.derive_gains(task_a):
        other = gains_b.get((rec.arch_from, rec.arch_to))
        if other is not None:
            left.append(rec.gain)
            right.append(other)
    return np.asarray(left, dtype=float), np.asarray(right, dtype=float)


def reference_potential(landscape, design):
    """One design's noise-free value: its utilities summed in dimension order, then interactions."""
    total = sum(landscape.utilities[d][c] for d, c in enumerate(design))
    for (d1, d2), matrix in landscape.interactions.items():
        total += matrix[design[d1], design[d2]]
    return float(total)


def reference_performance(landscape, design):
    """``reference_potential`` plus the design's noise term, when the landscape has noise."""
    value = reference_potential(landscape, design)
    if landscape.noise is not None:
        value += landscape.noise[landscape.space.index_of(design)]
    return float(value)


def reference_edge_features(space, from_design, to_design):
    """``one_hot(from) ++ (one_hot(to) - one_hot(from))``, written one dimension at a time."""
    space.validate(from_design)
    space.validate(to_design)
    changed = [d for d, (a, b) in enumerate(zip(from_design, to_design)) if a != b]
    assert len(changed) == 1, f"{from_design} -> {to_design} is not one move"
    width = sum(len(d.candidates) for d in space.dimensions)
    vec = np.zeros(2 * width, dtype=float)
    offset = 0
    for d, dim in enumerate(space.dimensions):
        vec[offset + from_design[d]] = 1.0
        if d == changed[0]:
            vec[width + offset + to_design[d]] = 1.0
            vec[width + offset + from_design[d]] = -1.0
        offset += len(dim.candidates)
    return vec


def reference_predict_gain(reg, from_design, to_design):
    """A regressor's antisymmetrized gain from two one-row forwards over reference features."""
    w = reg.params()

    def raw(row):
        return float((np.tanh(row[None] @ w["w_in"].T + w["b_in"]) @ w["w_out"])[0])

    fwd = reference_edge_features(reg.space, from_design, to_design)
    bwd = reference_edge_features(reg.space, to_design, from_design)
    return (raw(fwd) - raw(bwd)) / 2.0


def reference_weave(state, candidates, graphs, regressors, current=None):
    """The per-candidate weave loop, as a list of ``WovenScore``.

    One ``local_gains`` dict per view task (absent for a task without a
    graph), one ``reference_predict_gain`` per flagged task and candidate,
    and each score accumulated as ``score += weight * value`` from +0.0 in
    view order.
    """
    from mdesign.engine import WovenScore
    from mdesign.graph import local_gains

    origin = state.current if current is None else current
    space = next(iter(graphs.values())).store.space  # every graph reads one store
    per_task_local = {}
    for tid in state.view.weights:
        graph = graphs.get(tid)
        per_task_local[tid] = local_gains(graph, origin) if graph is not None else {}
    out = []
    for mod, target in candidates:
        rank = space.index_of(target)
        if rank in state.evaluated:
            continue
        contributions = {}
        score = 0.0
        for tid, weight in state.view.weights.items():
            if state.flags.is_flagged(tid) and tid in regressors:
                value = reference_predict_gain(regressors[tid], origin, target)
                contributions[tid] = ("predicted", value)
                score += weight * value
            else:
                value = per_task_local[tid].get(mod)
                if value is None:
                    contributions[tid] = ("absent", None)
                else:
                    contributions[tid] = ("retrieved", value)
                    score += weight * value
        out.append(WovenScore(mod, target, rank, score, contributions))
    return out


def reference_select(scores):
    """Argmax by score; ties go to the lowest (dimension, target choice)."""
    return min(scores, key=lambda s: (-s.score, s.modification.dim, s.modification.to_choice))


@dataclass
class ReferenceTransferModel:
    """The deque-backed transfer model that the array window replaced, kept verbatim.

    It rebuilds ``np.asarray(self.window)`` on every refit and fits it with
    two ``np.dot`` calls and ``np.mean``.  The package model must hold the
    same pairs, go cold where it does, and fit within the dot-product error
    bound that ``TransferWindow`` states.
    """

    window_size: int
    noise_floor: float = NOISE_FLOOR
    window: deque = field(default_factory=deque)
    slope: float = 1.0
    noise_var: float = NOISE_FLOOR * COLD_START_VAR_SCALE

    def __post_init__(self) -> None:
        if self.window_size < 2:
            raise SimilarityError(f"window size must be >= 2, got {self.window_size}")
        if not (math.isfinite(self.noise_floor) and self.noise_floor > 0):
            raise SimilarityError("noise floor must be a positive finite value")
        self.window = deque(self.window, maxlen=self.window_size)
        self.noise_var = self.noise_floor * COLD_START_VAR_SCALE
        self._refit()

    def _refit(self) -> None:
        if len(self.window) < 2:
            self.slope = 1.0
            self.noise_var = self.noise_floor * COLD_START_VAR_SCALE
            return
        pairs = np.asarray(self.window, dtype=float)
        observed, retrieved = pairs[:, 0], pairs[:, 1]
        denom = float(np.dot(retrieved, retrieved))
        self.slope = float(np.dot(observed, retrieved) / denom) if denom > 0.0 else 1.0
        resid = observed - self.slope * retrieved
        self.noise_var = max(float(np.mean(resid * resid)), self.noise_floor)


def reference_update_transfer(model, pair):
    """Push one (observed, retrieved) pair and refit slope and variance in place."""
    observed, retrieved = float(pair[0]), float(pair[1])
    if not (math.isfinite(observed) and math.isfinite(retrieved)):
        raise SimilarityError(f"non-finite observation pair {pair!r}")
    model.window.append((observed, retrieved))
    model._refit()
    return model


class ReferenceTransferWindow:
    """One ``ReferenceTransferModel`` per task, behind the stacked window's attributes."""

    def __init__(self, tasks, window_size, noise_floor=NOISE_FLOOR):
        self.tasks = tuple(tasks)
        self.models = {tid: ReferenceTransferModel(window_size, noise_floor) for tid in self.tasks}

    @property
    def slope(self):
        return [self.models[tid].slope for tid in self.tasks]

    @property
    def noise_var(self):
        return [self.models[tid].noise_var for tid in self.tasks]


def reference_update_transfers(window, observed, retrieved):
    """Push the pair of each task with a value into that task's own model, one at a time.

    ``retrieved[j]`` is task ``window.tasks[j]``'s gain or None, as for ``update_transfer``.
    """
    for tid, value in zip(window.tasks, retrieved, strict=True):
        if value is not None:
            reference_update_transfer(window.models[tid], (observed, value))
    return window


def reference_bayes_update(view, transfers, observed, retrieved):
    """The task-keyed Bayes step that the task-ordered one replaced, kept verbatim.

    ``retrieved`` maps task ids to gains (a missing id or None: no gain), and
    each task's fit is looked up by id, so the view may list its tasks in any
    order.  The package step must give the same bits on task-ordered inputs.
    """
    if not math.isfinite(observed):
        raise SimilarityError(f"observed gain must be finite, got {observed!r}")
    fits = dict(zip(transfers.tasks, zip(transfers.slope, transfers.noise_var)))
    likelihoods: dict[str, float | None] = {}
    computed: list[float] = []
    for tid in view.weights:
        value = retrieved.get(tid)
        if value is None:
            likelihoods[tid] = None
            continue
        slope, variance = fits[tid]
        if not (math.isfinite(variance) and variance > 0.0):
            raise SimilarityError(f"variance must be positive and finite, got {variance!r}")
        if not math.isfinite(slope):
            raise SimilarityError(f"slope must be finite, got {slope!r}")
        resid = float(observed) - slope * float(value)
        lk = math.exp(-(resid * resid) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
        likelihoods[tid] = lk
        computed.append(lk)
    neutral = (sum(computed) / len(computed)) if computed else 1.0
    raw = {
        tid: view.weights[tid] * (lk if lk is not None else neutral)
        for tid, lk in likelihoods.items()
    }
    total = sum(raw.values())
    if total <= 0.0 or not math.isfinite(total):
        return SimilarityView(dict(view.weights))
    return SimilarityView({tid: w / total for tid, w in raw.items()})
