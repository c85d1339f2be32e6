"""Adaptation planner: OOD flags, replay buffer, and the edge-gain regressor.

When a benchmark's similarity weight stays below threshold for several
consecutive iterations it is flagged as out-of-distribution.  From then on
its contribution to move scoring comes from a small learned surrogate -- a
two-layer perceptron over explicit edge features, trained with L1 loss on the
benchmark's gain graph and fine-tuned online from a replay buffer of gains
actually observed on the target task.

The network output is antisymmetrized, ``(f(a->b) - f(b->a)) / 2``, so the
two directions of an edge predict exact opposites by construction.  Because
of that the raw output needs no bias term (a constant cancels identically),
and training is plain full-batch Adam on a hand-written backward pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import EdgeSample, GainGraph, edge_samples
from .similarity import SimilarityView
from .space import DesignSpace, DesignTuple

__all__ = [
    "PlannerError",
    "RegressorHyper",
    "GainRegressor",
    "ReplayBuffer",
    "OodFlags",
    "edge_features",
    "feature_length",
    "pretrain_regressor",
    "predict_gain",
    "fine_tune",
    "update_ood_flags",
    "wasserstein_1d",
]

LOW_WEIGHT_FACTOR = 0.5  # low iff weight < LOW_WEIGHT_FACTOR * (1 / n_tasks)
PERSIST_STEPS = 5  # consecutive low iterations before a task is flagged
BUFFER_CAPACITY = 256
REPLAY_MIX = 0.5  # benchmark edges drawn per buffer entry during fine-tuning


class PlannerError(ValueError):
    """Invalid planner inputs (empty graphs/buffers, non-neighbor pairs)."""


# ------------------------------------------------------------- featurization


def feature_length(space: DesignSpace) -> int:
    """Length of an edge feature vector for this space (one-hot + delta parts)."""
    width = sum(len(d.candidates) for d in space.dimensions)
    return 2 * width


def edge_features(space: DesignSpace, from_design: DesignTuple, to_design: DesignTuple) -> np.ndarray:
    """Encode a one-hop move as ``one_hot(from) ++ (one_hot(to) - one_hot(from))``.

    The delta part is zero everywhere except the changed dimension's block,
    which holds exactly one +1 (target candidate) and one -1 (source).
    """
    space.validate(from_design)
    space.validate(to_design)
    changed = [d for d, (a, b) in enumerate(zip(from_design, to_design)) if a != b]
    if len(changed) != 1:
        raise PlannerError(
            f"edge features need designs one modification apart, got {from_design} -> {to_design}"
        )
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


# ----------------------------------------------------------------- regressor


@dataclass(frozen=True)
class RegressorHyper:
    """Training hyperparameters for the edge-gain regressor."""

    hidden_dim: int = 64
    learning_rate: float = 0.01
    epochs: int = 200
    seed: int = 0
    max_samples: int | None = None  # optional cap on directed training samples
    replay_mix: float = REPLAY_MIX

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise PlannerError("hidden_dim must be >= 1")
        if self.epochs < 1:
            raise PlannerError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise PlannerError("learning_rate must be positive")
        if self.replay_mix < 0:
            raise PlannerError("replay_mix must be >= 0")


class GainRegressor:
    """Two-layer tanh perceptron over edge features with antisymmetrized output.

    The output layer starts at zero, so an untrained regressor predicts
    exactly 0 for every edge.
    """

    def __init__(self, space: DesignSpace, hyper: RegressorHyper = RegressorHyper()):
        self.space = space
        self.hyper = hyper
        d_in = feature_length(space)
        rng = np.random.default_rng(hyper.seed)
        self.w_in = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(hyper.hidden_dim, d_in))
        self.b_in = np.zeros(hyper.hidden_dim)
        self.w_out = np.zeros(hyper.hidden_dim)

    # parameter blocks, in a stable order for the optimizer
    def params(self) -> dict[str, np.ndarray]:
        return {"w_in": self.w_in, "b_in": self.b_in, "w_out": self.w_out}

    def set_params(self, params: Mapping[str, np.ndarray]) -> None:
        self.w_in = np.array(params["w_in"], dtype=float)
        self.b_in = np.array(params["b_in"], dtype=float)
        self.w_out = np.array(params["w_out"], dtype=float)

    def raw_output(self, feats: np.ndarray) -> np.ndarray:
        """Un-antisymmetrized network output for a batch of feature rows."""
        feats = np.atleast_2d(np.asarray(feats, dtype=float))
        return np.tanh(feats @ self.w_in.T + self.b_in) @ self.w_out

    def predict_batch(self, fwd: np.ndarray, bwd: np.ndarray) -> np.ndarray:
        """Antisymmetrized predictions for aligned forward/backward feature rows."""
        return (self.raw_output(fwd) - self.raw_output(bwd)) / 2.0


def predict_gain(reg: GainRegressor, from_design: DesignTuple, to_design: DesignTuple) -> float:
    """Estimated gain of a one-hop move; ``predict(a,b) == -predict(b,a)`` exactly."""
    fwd = edge_features(reg.space, from_design, to_design)
    bwd = edge_features(reg.space, to_design, from_design)
    out_f = float(reg.raw_output(fwd)[0])
    out_b = float(reg.raw_output(bwd)[0])
    return (out_f - out_b) / 2.0


def _loss_grads(
    reg: GainRegressor, fwd: np.ndarray, bwd: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Mean-absolute-error loss, predictions, and analytic (sub)gradients."""
    z_f = fwd @ reg.w_in.T + reg.b_in
    h_f = np.tanh(z_f)
    z_b = bwd @ reg.w_in.T + reg.b_in
    h_b = np.tanh(z_b)
    pred = (h_f @ reg.w_out - h_b @ reg.w_out) / 2.0
    resid = pred - target
    loss = float(np.mean(np.abs(resid)))
    g = np.sign(resid) / (2.0 * resid.size)  # d(loss)/d(raw_f); negate for raw_b
    d_w_out = h_f.T @ g - h_b.T @ g
    dz_f = (g[:, None] * reg.w_out[None, :]) * (1.0 - h_f * h_f)
    dz_b = (-g[:, None] * reg.w_out[None, :]) * (1.0 - h_b * h_b)
    d_w_in = dz_f.T @ fwd + dz_b.T @ bwd
    d_b_in = dz_f.sum(axis=0) + dz_b.sum(axis=0)
    return loss, pred, {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out}


def _train(
    reg: GainRegressor,
    fwd: np.ndarray,
    bwd: np.ndarray,
    target: np.ndarray,
    epochs: int,
    learning_rate: float,
    max_distribution_shift: float | None = None,
) -> float:
    """Full-batch Adam on the L1 objective; keeps the best admissible iterate.

    Every epoch's parameters (including the starting point) compete on the
    final training loss; when ``max_distribution_shift`` is given, iterates
    whose predicted-gain distribution drifts farther than that Wasserstein
    distance from the targets are inadmissible, which keeps fine-tuning
    rounds from degrading the predicted distribution.  Returns the final
    (best) training MAE.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(v) for k, v in reg.params().items()}
    moment2 = {k: np.zeros_like(v) for k, v in reg.params().items()}
    best_loss = math.inf
    best_params: dict[str, np.ndarray] | None = None

    def consider(loss: float, pred: np.ndarray) -> None:
        nonlocal best_loss, best_params
        if max_distribution_shift is not None:
            if wasserstein_1d(pred, target) > max_distribution_shift + 1e-12:
                return
        if loss < best_loss:
            best_loss = loss
            best_params = {k: v.copy() for k, v in reg.params().items()}

    for step in range(1, epochs + 1):
        loss, pred, grads = _loss_grads(reg, fwd, bwd, target)
        consider(loss, pred)
        scale1 = 1.0 - beta1**step
        scale2 = 1.0 - beta2**step
        params = reg.params()
        for key, grad in grads.items():
            moment1[key] = beta1 * moment1[key] + (1.0 - beta1) * grad
            moment2[key] = beta2 * moment2[key] + (1.0 - beta2) * grad * grad
            m_hat = moment1[key] / scale1
            v_hat = moment2[key] / scale2
            params[key] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    loss, pred, _ = _loss_grads(reg, fwd, bwd, target)
    consider(loss, pred)
    if best_params is not None:
        reg.set_params(best_params)
    return best_loss


def _sample_matrices(
    space: DesignSpace, rows: Sequence[tuple[DesignTuple, DesignTuple, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    fwd = np.stack([edge_features(space, a, b) for a, b, _ in rows])
    bwd = np.stack([edge_features(space, b, a) for a, b, _ in rows])
    target = np.array([g for _, _, g in rows], dtype=float)
    return fwd, bwd, target


def pretrain_regressor(
    graph: GainGraph, hyper: RegressorHyper = RegressorHyper()
) -> tuple[GainRegressor, float]:
    """Fit a fresh regressor to a task's measured edges (both directions).

    Deterministic given ``hyper.seed``; when the graph holds more than
    ``hyper.max_samples`` directed samples a seeded subset of edges is used.
    Returns the regressor and its final training MAE.
    """
    undirected = edge_samples(graph, directionized=False)
    if not undirected:
        raise PlannerError(f"task {graph.task_id!r}: gain graph has no edges to train on")
    if hyper.max_samples is not None and 2 * len(undirected) > hyper.max_samples:
        keep = max(1, hyper.max_samples // 2)
        rng = np.random.default_rng(hyper.seed)
        idx = np.sort(rng.choice(len(undirected), size=keep, replace=False))
        undirected = [undirected[i] for i in idx]
    rows = []
    for s in undirected:
        rows.append((s.from_design, s.to_design, s.gain))
        rows.append((s.to_design, s.from_design, -s.gain))
    space = graph.store.space
    fwd, bwd, target = _sample_matrices(space, rows)
    reg = GainRegressor(space, hyper)
    mae = _train(reg, fwd, bwd, target, hyper.epochs, hyper.learning_rate)
    return reg, mae


def fine_tune(
    reg: GainRegressor,
    buffer: "ReplayBuffer",
    benchmark_samples: Sequence[EdgeSample],
    hyper: RegressorHyper | None = None,
) -> tuple[GainRegressor, float]:
    """One fine-tuning round on buffer contents plus a seeded benchmark subsample.

    The benchmark subsample holds ``replay_mix`` edges per buffer entry
    (capped by availability); the round never increases training MAE and never
    lets the predicted-gain distribution drift away from the round's targets
    (Wasserstein), because the best admissible iterate -- including the
    starting parameters -- wins.  Returns the regressor and the round's MAE.
    """
    hyper = hyper if hyper is not None else reg.hyper
    entries = buffer.entries()
    if not entries:
        raise PlannerError("replay buffer is empty")
    rows = [(a, b, g) for (a, b), g in entries]
    n_bench = min(len(benchmark_samples), int(round(hyper.replay_mix * len(entries))))
    if n_bench > 0:
        rng = np.random.default_rng(hyper.seed)
        idx = np.sort(rng.choice(len(benchmark_samples), size=n_bench, replace=False))
        rows.extend(
            (benchmark_samples[i].from_design, benchmark_samples[i].to_design, benchmark_samples[i].gain)
            for i in idx
        )
    fwd, bwd, target = _sample_matrices(reg.space, rows)
    start_shift = wasserstein_1d(reg.predict_batch(fwd, bwd), target)
    mae = _train(
        reg,
        fwd,
        bwd,
        target,
        hyper.epochs,
        hyper.learning_rate,
        max_distribution_shift=start_shift,
    )
    return reg, mae


# -------------------------------------------------------------- replay buffer


class ReplayBuffer:
    """Bounded FIFO of observed one-hop gains: ``((from, to), gain)``."""

    def __init__(self, capacity: int = BUFFER_CAPACITY):
        if capacity < 1:
            raise PlannerError("buffer capacity must be >= 1")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)

    def append(self, from_design: DesignTuple, to_design: DesignTuple, gain: float) -> None:
        if len(from_design) != len(to_design) or sum(
            a != b for a, b in zip(from_design, to_design)
        ) != 1:
            raise PlannerError("replay entries must be one-hop pairs")
        if not math.isfinite(gain):
            raise PlannerError("replay gain must be finite")
        self._entries.append(((from_design, to_design), float(gain)))

    def entries(self) -> list[tuple[tuple[DesignTuple, DesignTuple], float]]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


# ------------------------------------------------------------------ OOD flags


@dataclass
class FlagState:
    flagged: bool = False
    low_streak: int = 0


class OodFlags:
    """Per-task sticky out-of-distribution markers with persistence counting."""

    def __init__(self, task_ids: Iterable[str]):
        self._state: dict[str, FlagState] = {tid: FlagState() for tid in task_ids}

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self._state)

    def state(self, task_id: str) -> FlagState:
        if task_id not in self._state:
            raise PlannerError(f"unknown task {task_id!r}")
        return self._state[task_id]

    def is_flagged(self, task_id: str) -> bool:
        return self.state(task_id).flagged

    def flagged_tasks(self) -> tuple[str, ...]:
        return tuple(tid for tid, st in sorted(self._state.items()) if st.flagged)

    def _ensure(self, task_id: str) -> FlagState:
        return self._state.setdefault(task_id, FlagState())


def update_ood_flags(
    flags: OodFlags,
    view: SimilarityView,
    rel_threshold: float = LOW_WEIGHT_FACTOR,
    persist_steps: int = PERSIST_STEPS,
) -> OodFlags:
    """Advance flag state from the current similarity view (in place).

    A task is *low* this iteration iff its weight is below
    ``rel_threshold / n_tasks`` (the threshold is relative to a uniform
    view).  ``persist_steps`` consecutive low iterations flag the task; flags
    are sticky and a flagged task's streak freezes, so ``flagged iff
    streak >= persist_steps`` stays true for the rest of the run.
    """
    if persist_steps < 1:
        raise PlannerError("persist_steps must be >= 1")
    if not math.isfinite(rel_threshold) or rel_threshold < 0.0:
        raise PlannerError("rel_threshold must be finite and >= 0")
    n = len(view.weights)
    threshold = rel_threshold / n
    for tid, weight in view.weights.items():
        st = flags._ensure(tid)
        if st.flagged:
            continue
        if weight < threshold:
            st.low_streak += 1
            if st.low_streak >= persist_steps:
                st.flagged = True
        else:
            st.low_streak = 0
    return flags


# ----------------------------------------------------------------- wasserstein


def wasserstein_1d(a: Sequence[float], b: Sequence[float]) -> float:
    """Wasserstein-1 distance between two empirical 1-D distributions.

    Equal-size samples reduce to the mean absolute difference of the sorted
    match-up; unequal sizes integrate the absolute CDF difference.
    """
    xs = np.sort(np.asarray(a, dtype=float).ravel())
    ys = np.sort(np.asarray(b, dtype=float).ravel())
    if xs.size == 0 or ys.size == 0:
        raise PlannerError("wasserstein_1d needs nonempty samples")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise PlannerError("wasserstein_1d inputs must be finite")
    if xs.size == ys.size:
        return float(np.mean(np.abs(xs - ys)))
    grid = np.concatenate([xs, ys])
    grid.sort(kind="mergesort")
    widths = np.diff(grid)
    cdf_x = np.searchsorted(xs, grid[:-1], side="right") / xs.size
    cdf_y = np.searchsorted(ys, grid[:-1], side="right") / ys.size
    return float(np.sum(np.abs(cdf_x - cdf_y) * widths))

