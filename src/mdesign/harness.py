"""Desk-scale experimentation: synthetic landscapes, baselines, metrics, stats.

The synthetic family is additive per-dimension utilities plus optional
pairwise interactions and per-design noise.  The unseen task mixes the
benchmark potentials linearly (plus optional independent structure and its
own noise), so local linear consistency between unseen and benchmark gains
holds exactly at zero interaction/noise and degrades controllably from
there.

Landscapes hold every design's value as an array in rank order, synthetic
stores are built from those arrays, and two tasks join on the store's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import stats as _sps

from .engine import EvaluationOracle, FunctionOracle, RefinementEngine, RunConfig, _is_finite
from .planner import GainRegressor, featurize
from .similarity import kendall_tau
from .space import DesignSpace, DesignTuple
from .store import KnowledgeStore, StoreError, TaskRecord

__all__ = [
    "HarnessError",
    "CoverageError",
    "CorrelationSpec",
    "TaskLandscape",
    "SyntheticSuite",
    "generate_landscapes",
    "replay_oracle",
    "ReplayOracle",
    "RunMetrics",
    "metrics_from_performances",
    "evaluations_to_reach",
    "run_baseline",
    "ConsistencyStats",
    "consistency_stats",
    "shared_edge_gains",
    "prediction_r2",
]


class HarnessError(ValueError):
    """Invalid harness configuration or inputs."""


class CoverageError(HarnessError):
    """A replay oracle was asked for an architecture with no recorded performance."""


MAX_EXHAUSTIVE = 1_000_000  # largest space for ground-truth enumeration


# ---------------------------------------------------------------- landscapes


@dataclass(frozen=True)
class CorrelationSpec:
    """How the unseen task relates to the benchmarks.

    ``mix`` holds one coefficient per benchmark: the unseen potential is the
    mixed benchmark potentials plus ``independent_strength``-scaled private
    utilities plus ``unseen_noise``-scaled per-design noise.  Benchmarks get
    their own utilities (scale ``utility_scale``), optional pairwise
    interactions, and optional per-design noise.
    """

    mix: tuple[float, ...]
    utility_scale: float = 1.0
    interaction_strength: float = 0.0
    benchmark_noise: float = 0.0
    unseen_noise: float = 0.0
    independent_strength: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.mix, (list, tuple)) and self.mix and all(map(_is_finite, self.mix))):
            raise HarnessError(f"mix must be a nonempty list of finite numbers, got {self.mix!r}")
        object.__setattr__(self, "mix", tuple(map(float, self.mix)))
        for name in ("utility_scale", "interaction_strength", "benchmark_noise",
                     "unseen_noise", "independent_strength"):
            value = getattr(self, name)
            if not (_is_finite(value) and value >= 0):
                raise HarnessError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.utility_scale == 0:
            raise HarnessError("utility_scale must be positive")


class TaskLandscape:
    """Additive utilities + pairwise interactions + frozen per-design noise.

    ``potentials`` and ``performances`` hold every design's value by rank, each
    summed as one design's: utilities, then interactions in dict order, then noise.
    """

    def __init__(
        self,
        space: DesignSpace,
        utilities: Sequence[np.ndarray],
        interactions: Mapping[tuple[int, int], np.ndarray] | None = None,
        noise: np.ndarray | None = None,
    ):
        if len(utilities) != len(space.dimensions):
            raise HarnessError("one utility vector per dimension required")
        for d, (dim, u) in enumerate(zip(space.dimensions, utilities)):
            if len(u) != len(dim.candidates):
                raise HarnessError(f"dimension {dim.name!r}: utility vector length mismatch")
        if noise is not None and len(noise) != space.size:
            raise HarnessError("noise vector must cover the whole space")
        self.space = space
        self.utilities = [np.asarray(u, dtype=float) for u in utilities]
        self.interactions = dict(interactions or {})
        self.noise = None if noise is None else np.asarray(noise, dtype=float)
        # one sparse index grid per dimension, each along its own axis; the sum
        # broadcasts to the space's shape, whose C order is rank order
        grids = np.indices([len(d.candidates) for d in space.dimensions], sparse=True)
        total = 0.0
        for u, grid in zip(self.utilities, grids):
            total = total + u[grid]
        for (d1, d2), matrix in self.interactions.items():
            total += matrix[grids[d1], grids[d2]]
        self.potentials = total.ravel()
        self.performances = self.potentials if noise is None else self.potentials + self.noise
        if not np.isfinite(self.performances).all():
            raise HarnessError("landscape performances must be finite")

    def potential(self, design: DesignTuple) -> float:
        """Noise-free part of the performance."""
        return float(self.potentials[self.space.index_of(design)])

    def performance(self, design: DesignTuple) -> float:
        return float(self.performances[self.space.index_of(design)])

    def utilities_flat(self) -> tuple[float, ...]:
        return tuple(float(x) for u in self.utilities for x in u)


def stat_names_for(space: DesignSpace) -> tuple[str, ...]:
    """The task-statistics schema used by synthetic stores (one per choice)."""
    return tuple(
        f"util_{dim.name}_{cand}" for dim in space.dimensions for cand in dim.candidates
    )


@dataclass
class SyntheticSuite:
    """One generated problem instance: benchmark store, unseen task, ground truth."""

    space: DesignSpace
    spec: CorrelationSpec
    seed: int
    store: KnowledgeStore  # benchmarks only, fully enumerated, with stats
    benchmarks: list[TaskLandscape]
    unseen: TaskLandscape
    unseen_stats: dict[str, float]
    optimum_design: DesignTuple
    optimum_performance: float

    def unseen_oracle(self) -> FunctionOracle:
        """A fresh memoized oracle over the unseen landscape (one per run)."""
        return FunctionOracle(self.unseen.performance)

    def full_store(self, unseen_task_id: str = "unseen") -> KnowledgeStore:
        """Benchmarks plus the fully enumerated unseen task (for replay runs)."""
        if unseen_task_id in self.store.tasks:
            raise HarnessError(f"task id {unseen_task_id!r} already used by a benchmark")
        tasks = list(self.store.tasks.values()) + [
            TaskRecord(task_id=unseen_task_id, stats=self.unseen.utilities_flat())
        ]
        benchmarks = self.store.performances_at(self.store.task_ids, np.arange(self.space.size))
        perf = np.vstack([benchmarks, self.unseen.performances])
        return _enumerated_store(self.space, tasks, perf)


def _enumerated_store(space: DesignSpace, tasks: list, perf: np.ndarray) -> KnowledgeStore:
    """A store of ``TaskRecord``s' ``(tasks, space.size)`` values by rank, NaN if unmeasured."""
    designs, ranks = tuple(space.iter_tuples()), np.arange(space.size)
    task_map = {rec.task_id: rec for rec in tasks}
    return KnowledgeStore._canonical(space, task_map, designs, ranks, perf, stat_names_for(space))


def generate_landscapes(
    space: DesignSpace,
    n_benchmarks: int,
    correlation_spec: CorrelationSpec,
    seed: int,
) -> SyntheticSuite:
    """Generate benchmarks + an unseen task with known correlation structure.

    Benchmark records fully enumerate the space; the ground-truth optimum of
    the unseen landscape is found by exhaustive enumeration (spaces up to
    10^6 designs).
    """
    if space.size > MAX_EXHAUSTIVE:
        raise HarnessError(
            f"space has {space.size} designs; exhaustive ground truth capped at {MAX_EXHAUSTIVE}"
        )
    if n_benchmarks < 1:
        raise HarnessError("need at least one benchmark")
    if len(correlation_spec.mix) != n_benchmarks:
        raise HarnessError(
            f"mix has {len(correlation_spec.mix)} coefficients for {n_benchmarks} benchmarks"
        )
    rng = np.random.default_rng(seed)
    spec = correlation_spec
    dims = space.dimensions

    pairs = list(combinations(range(len(dims)), 2)) if spec.interaction_strength > 0 else []
    benchmarks: list[TaskLandscape] = []
    for _ in range(n_benchmarks):
        utilities = [rng.normal(0.0, spec.utility_scale, len(d.candidates)) for d in dims]
        interactions = {
            (d1, d2): rng.normal(
                0.0, spec.interaction_strength, (len(dims[d1].candidates), len(dims[d2].candidates))
            )
            for d1, d2 in pairs
        }
        noise = (
            rng.normal(0.0, spec.benchmark_noise, space.size)
            if spec.benchmark_noise > 0
            else None
        )
        benchmarks.append(TaskLandscape(space, utilities, interactions, noise))

    mixed_utilities = [
        sum(spec.mix[k] * benchmarks[k].utilities[d] for k in range(n_benchmarks))
        for d in range(len(dims))
    ]
    if spec.independent_strength > 0:
        for d in range(len(dims)):
            mixed_utilities[d] = mixed_utilities[d] + rng.normal(
                0.0, spec.independent_strength, len(dims[d].candidates)
            )
    mixed_interactions = {
        pair: sum(spec.mix[k] * benchmarks[k].interactions[pair] for k in range(n_benchmarks))
        for pair in pairs
    }
    unseen_noise = (
        rng.normal(0.0, spec.unseen_noise, space.size) if spec.unseen_noise > 0 else None
    )
    unseen = TaskLandscape(space, mixed_utilities, mixed_interactions, unseen_noise)

    tasks = [
        TaskRecord(task_id=f"bench{k:02d}", stats=benchmarks[k].utilities_flat())
        for k in range(n_benchmarks)
    ]
    store = _enumerated_store(space, tasks, np.stack([b.performances for b in benchmarks]))
    best = int(unseen.performances.argmax())  # the first maximum
    return SyntheticSuite(
        space=space,
        spec=spec,
        seed=seed,
        store=store,
        benchmarks=benchmarks,
        unseen=unseen,
        unseen_stats=dict(zip(stat_names_for(space), unseen.utilities_flat())),
        optimum_design=space.tuple_at(best),
        optimum_performance=float(unseen.performances[best]),
    )


# ------------------------------------------------------------- replay oracle


class ReplayOracle(EvaluationOracle):
    """Oracle that reads recorded performances instead of evaluating models."""

    def __init__(self, store: KnowledgeStore, task_id: str):
        super().__init__()
        if task_id not in store.tasks:
            raise HarnessError(f"unknown task {task_id!r}")
        self._store = store
        self._task_id = task_id

    def _evaluate(self, design: DesignTuple) -> float:
        value = self._store.performance_of(self._task_id, design)
        if value is None:
            raise CoverageError(
                f"task {self._task_id!r} has no recorded performance for design {design!r} "
                "(incomplete benchmark coverage)"
            )
        return value


def replay_oracle(store: KnowledgeStore, task_id: str) -> ReplayOracle:
    """Record-replay evaluation for a (fully or partially) recorded task."""
    return ReplayOracle(store, task_id)


# ------------------------------------------------------------------- metrics


@dataclass
class RunMetrics:
    """Search-quality metrics for one run, derived from its performances alone.

    They hold no timings: timing a run is the benchmark's job, and reports
    stay byte-reproducible.
    """

    best_trajectory: list[float]
    regret_trajectory: list[float] | None
    target: float

    @property
    def final_regret(self) -> float | None:
        return self.regret_trajectory[-1] if self.regret_trajectory else None

    @property
    def evaluations_to_target(self) -> float:
        """1-based evaluation count until best-so-far reaches ``target`` (inf if never)."""
        return evaluations_to_reach(self, self.target)


def metrics_from_performances(
    performances: Sequence[float],
    optimum: float | None = None,
    target: float | None = None,
) -> RunMetrics:
    """Derive metrics from performances in evaluation order.

    When ``target`` is omitted it defaults to the run's own best at the
    halfway evaluation.  ``evaluations_to_target`` is the 1-based index of the
    first evaluation whose best-so-far reaches the target (inf if never).
    """
    if not performances:
        raise HarnessError("need at least one evaluation")
    best: list[float] = []
    top = -math.inf
    for p in performances:
        top = max(top, p)
        best.append(top)
    if target is None:
        target = best[max(0, (len(best) + 1) // 2 - 1)]
    regret = None
    if optimum is not None:
        regret = [optimum - b for b in best]
    return RunMetrics(best_trajectory=best, regret_trajectory=regret, target=target)


def evaluations_to_reach(metrics: RunMetrics, level: float, tol: float = 1e-12) -> float:
    """1-based evaluation count until best-so-far reaches ``level`` (inf if never)."""
    for i, b in enumerate(metrics.best_trajectory, start=1):
        if b >= level - tol:
            return i
    return math.inf


# ----------------------------------------------------------------- baselines

BASELINE_KINDS = ("random", "static_weave", "greedy_local")


def run_baseline(
    kind: str,
    config: RunConfig,
    store: KnowledgeStore,
    oracle: EvaluationOracle,
    optimum: float | None = None,
    target: float | None = None,
    target_stats: Mapping[str, float] | None = None,
    start: DesignTuple | None = None,
) -> RunMetrics:
    """Run a reference searcher with the same evaluation accounting as the engine.

    ``random`` draws designs uniformly without replacement; ``static_weave``
    is ``RefinementEngine.run`` with posterior updates disabled (weights
    frozen at initialization); ``greedy_local`` hill-climbs on observed
    performance only.  Every kind spends at most ``config.budget + 1``
    evaluations (the engine's initial evaluation plus its step budget).
    """
    if kind not in BASELINE_KINDS:
        raise HarnessError(f"unknown baseline kind {kind!r}; expected one of {BASELINE_KINDS}")
    space = store.space
    budget = config.budget + 1
    performances: list[float] = []

    if kind == "random":
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(space.size)
        for index in order[:budget]:
            performances.append(oracle.evaluate(space.tuple_at(int(index))))
    elif kind == "static_weave":
        engine = RefinementEngine(store, replace(config, dynamic_updates=False), target_stats)
        performances = [r.performance for r in engine.run(oracle).records]
    else:  # greedy_local
        if start is None:
            rng = np.random.default_rng(config.seed)
            start = space.tuple_at(int(rng.integers(space.size)))
        current = start
        current_perf = oracle.evaluate(current)
        performances.append(current_perf)
        evaluated = {current}
        improved = True
        while improved and len(performances) < budget:
            improved = False
            best_nbr, best_perf = None, current_perf
            for _, nbr in space.neighbors(current):
                if nbr in evaluated:
                    continue
                if len(performances) >= budget:
                    break
                value = oracle.evaluate(nbr)
                performances.append(value)
                evaluated.add(nbr)
                if value > best_perf:
                    best_nbr, best_perf = nbr, value
            if best_nbr is not None:
                current, current_perf = best_nbr, best_perf
                improved = True
    return metrics_from_performances(performances, optimum=optimum, target=target)


# ---------------------------------------------------------------- statistics


class ConsistencyStats(NamedTuple):
    """Through-origin fit quality between aligned unseen/benchmark gain vectors."""

    r_squared: float
    normality_p: float
    kendall: float


def consistency_stats(
    unseen_gains: Sequence[float], benchmark_gains: Sequence[float]
) -> ConsistencyStats:
    """R^2 of the through-origin fit, Shapiro-Wilk p of residuals, Kendall tau.

    R^2 is relative to the zero model (1 - SS_res / sum(unseen^2)), matching
    the through-origin regression it scores.
    """
    u = np.asarray(unseen_gains, dtype=float)
    b = np.asarray(benchmark_gains, dtype=float)
    if u.ndim != 1 or b.ndim != 1 or u.size != b.size:
        raise HarnessError("gain vectors must be 1-D and aligned")
    if u.size < 3:
        raise HarnessError("need at least 3 shared edges")
    if not (np.isfinite(u).all() and np.isfinite(b).all()):
        raise HarnessError("gain vectors must be finite")
    denom = float(np.dot(b, b))
    slope = float(np.dot(u, b) / denom) if denom > 0 else 0.0
    resid = u - slope * b
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(u, u))
    if ss_tot > 0:
        r_squared = 1.0 - ss_res / ss_tot
    else:
        r_squared = 1.0 if ss_res == 0 else 0.0
    if float(np.ptp(resid)) == 0.0:
        normality_p = 1.0  # degenerate residuals: nothing to reject
    else:
        normality_p = float(_sps.shapiro(resid).pvalue)
    return ConsistencyStats(r_squared, normality_p, kendall_tau(u, b))


def shared_edge_gains(
    store: KnowledgeStore, task_a: str, task_b: str
) -> tuple[np.ndarray, np.ndarray]:
    """Aligned gain vectors of two tasks over the edges both have measured, in task a's order.

    Task b's gain on an edge is one subtraction of its values at both ends.
    """
    if task_b not in store.tasks:
        raise StoreError(f"unknown task {task_b!r}")
    arch_from, arch_to, gains_a = store.edges(task_a)
    ends = store.arch_ranks[np.append(arch_to, arch_from)]
    there, here = store.performances_at([task_b], ends).reshape(2, -1)
    gains_b = there - here
    shared = ~np.isnan(gains_b)
    return gains_a[shared], gains_b[shared]


def prediction_r2(reg: GainRegressor, samples: Sequence) -> float:
    """Fit quality of ``reg`` on ``edge_samples``' true gains: 1 - SS_res / sum(true^2)."""
    if not samples:
        raise HarnessError("need at least one edge sample")
    edges = featurize(reg.space, samples)
    true, preds = edges.target, reg.predict(np.stack([edges.fwd, edges.bwd]))
    ss_tot = float(np.dot(true, true))
    ss_res = float(np.dot(true - preds, true - preds))
    if ss_tot > 0:
        return 1.0 - ss_res / ss_tot
    return 1.0 if ss_res == 0 else 0.0
