"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written the slow, obvious way (python loops,
math.fsum, scipy reference functions) so the package implementations are
checked against a second, independent route.
"""

from __future__ import annotations

import math
from itertools import combinations

from scipy import stats as _sps


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


def reference_weave(state, candidates, graphs, regressors, current=None):
    """The per-candidate weave loop, as a list of ``WovenScore``.

    One ``local_gains`` dict per view task (absent for a task without a
    graph), one ``predict_gain`` per flagged task and candidate, and each
    score accumulated as ``score += weight * value`` from +0.0 in view order.
    """
    from mdesign.engine import WovenScore
    from mdesign.graph import local_gains
    from mdesign.planner import predict_gain

    origin = state.current if current is None else current
    per_task_local = {}
    for tid in state.view.weights:
        graph = graphs.get(tid)
        per_task_local[tid] = local_gains(graph, origin) if graph is not None else {}
    out = []
    for mod, target in candidates:
        if target in state.evaluated:
            continue
        contributions = {}
        score = 0.0
        for tid, weight in state.view.weights.items():
            if state.flags.is_flagged(tid) and tid in regressors:
                value = predict_gain(regressors[tid], origin, target)
                contributions[tid] = ("predicted", value)
                score += weight * value
            else:
                value = per_task_local[tid].get(mod)
                if value is None:
                    contributions[tid] = ("absent", None)
                else:
                    contributions[tid] = ("retrieved", value)
                    score += weight * value
        out.append(WovenScore(mod, target, score, contributions))
    return out


def reference_select(scores):
    """Argmax by score; ties go to the lowest (dimension, target choice)."""
    return min(scores, key=lambda s: (-s.score, s.modification.dim, s.modification.to_choice))
