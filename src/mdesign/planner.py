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
from typing import Iterable, Sequence

import numpy as np

from .graph import EdgeSample, GainGraph, edge_samples
from .similarity import SimilarityView
from .space import DesignSpace, DesignTuple

__all__ = [
    "PlannerError",
    "RegressorHyper",
    "GainRegressor",
    "EdgeBatch",
    "ReplayBuffer",
    "OodFlags",
    "edge_features",
    "featurize",
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


def _blocks(flat: np.ndarray, hidden: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Views ``(w_in, b_in, w_out)`` into flat parameters (leading axes kept)."""
    n_in = hidden * (flat.shape[-1] // hidden - 2)
    lead = flat.shape[:-1]
    return (
        flat[..., :n_in].reshape(lead + (hidden, n_in // hidden)),
        flat[..., n_in : n_in + hidden],
        flat[..., n_in + hidden :],
    )


class GainRegressor:
    """Two-layer tanh perceptron over edge features with antisymmetrized output.

    All parameters live in one flat array, ``flat``, that the optimizer
    updates as a whole; ``w_in``, ``b_in`` and ``w_out`` are views into it,
    and assigning to them writes into it.  The output layer starts at zero,
    so an untrained regressor predicts exactly 0 for every edge.
    """

    def __init__(self, space: DesignSpace, hyper: RegressorHyper = RegressorHyper()):
        self.space = space
        self.hyper = hyper
        d_in = feature_length(space)
        rng = np.random.default_rng(hyper.seed)
        w_in = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(hyper.hidden_dim, d_in))
        self.flat = np.concatenate([w_in.ravel(), np.zeros(2 * hyper.hidden_dim)])
        self._w_in, self._b_in, self._w_out = _blocks(self.flat, hyper.hidden_dim)

    @property
    def w_in(self) -> np.ndarray:
        return self._w_in

    @w_in.setter
    def w_in(self, value: np.ndarray) -> None:
        self._w_in[...] = value

    @property
    def b_in(self) -> np.ndarray:
        return self._b_in

    @b_in.setter
    def b_in(self, value: np.ndarray) -> None:
        self._b_in[...] = value

    @property
    def w_out(self) -> np.ndarray:
        return self._w_out

    @w_out.setter
    def w_out(self, value: np.ndarray) -> None:
        self._w_out[...] = value

    def params(self) -> dict[str, np.ndarray]:
        """The parameter blocks as writable views into ``flat``."""
        return {"w_in": self._w_in, "b_in": self._b_in, "w_out": self._w_out}

    def raw_output(self, feats: np.ndarray) -> np.ndarray:
        """Un-antisymmetrized network output for a batch of feature rows."""
        feats = np.atleast_2d(np.asarray(feats, dtype=float))
        return np.tanh(feats @ self._w_in.T + self._b_in) @ self._w_out

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


def _stacked_loss_grads(
    params: np.ndarray,
    hidden: int,
    fwd: np.ndarray,
    bwd: np.ndarray,
    target: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-regressor MAE, predictions and flat (sub)gradients for stacked regressors.

    ``params`` is ``(tasks, flat)``, ``fwd``/``bwd`` are ``(tasks, rows,
    features)`` and ``target`` is ``(tasks, rows)``.  Each slice is computed
    with the same numpy calls as a single regressor would be, so stacking does
    not change any task's numbers.
    """
    w_in, b_in, w_out = _blocks(params, hidden)
    w_in_t = w_in.transpose(0, 2, 1)
    h_f = np.tanh(np.matmul(fwd, w_in_t) + b_in[:, None, :])
    h_b = np.tanh(np.matmul(bwd, w_in_t) + b_in[:, None, :])
    w_col = w_out[:, :, None]
    pred = (np.matmul(h_f, w_col)[..., 0] - np.matmul(h_b, w_col)[..., 0]) / 2.0
    resid = pred - target
    losses = np.mean(np.abs(resid), axis=1)
    g = (np.sign(resid) / (2.0 * resid.shape[1]))[:, :, None]  # d(loss)/d(raw_f); negate for raw_b
    d_w_out = (
        np.matmul(h_f.transpose(0, 2, 1), g)[..., 0] - np.matmul(h_b.transpose(0, 2, 1), g)[..., 0]
    )
    dz_f = (g * w_out[:, None, :]) * (1.0 - h_f * h_f)
    dz_b = (-g * w_out[:, None, :]) * (1.0 - h_b * h_b)
    d_w_in = np.matmul(dz_f.transpose(0, 2, 1), fwd) + np.matmul(dz_b.transpose(0, 2, 1), bwd)
    d_b_in = dz_f.sum(axis=1) + dz_b.sum(axis=1)
    grads = np.concatenate([d_w_in.reshape(len(params), -1), d_b_in, d_w_out], axis=1)
    return losses, pred, grads


def _loss_grads(
    reg: GainRegressor, fwd: np.ndarray, bwd: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Mean-absolute-error loss, predictions, and analytic (sub)gradients of one regressor."""
    losses, pred, grads = _stacked_loss_grads(
        reg.flat[None], reg.hyper.hidden_dim, fwd[None], bwd[None], np.asarray(target)[None]
    )
    d_w_in, d_b_in, d_w_out = _blocks(grads[0], reg.hyper.hidden_dim)
    return float(losses[0]), pred[0], {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out}


def _train(
    regs: Sequence[GainRegressor],
    fwd: np.ndarray,
    bwd: np.ndarray,
    target: np.ndarray,
    epochs: int,
    learning_rate: float,
    keep_distribution: bool = False,
) -> np.ndarray:
    """Stacked full-batch Adam on the L1 objective; each regressor keeps its best admissible iterate.

    ``fwd``/``bwd`` are ``(tasks, rows, features)`` and ``target`` is
    ``(tasks, rows)``, one slice per regressor; all regressors share one
    shape.  Parameters and Adam moments are stacked on the task axis, so an
    epoch costs one set of numpy calls for all of them.  Per task, every
    epoch's parameters (including the starting point) compete on the
    training loss.  With ``keep_distribution``, iterates whose
    predicted-gain distribution lies farther (Wasserstein) from the targets
    than the starting point's does are inadmissible, which keeps fine-tuning
    rounds from degrading the predicted distribution; only iterates that
    lower a task's best loss need that check.  Each regressor ends on its
    best iterate.  Returns each task's final (best) training MAE.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    hidden = regs[0].hyper.hidden_dim
    params = np.stack([reg.flat for reg in regs])
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    best = params.copy()
    best_loss = np.full(len(regs), math.inf)
    bound: list[float] | None = None
    for step in range(1, epochs + 2):
        losses, pred, grads = _stacked_loss_grads(params, hidden, fwd, bwd, target)
        improved = np.flatnonzero(losses < best_loss)
        if keep_distribution:
            if bound is None:  # the starting point sets the bound, so it is admissible
                bound = [wasserstein_1d(p, t) + 1e-12 for p, t in zip(pred, target)]
            else:
                improved = [i for i in improved if wasserstein_1d(pred[i], target[i]) <= bound[i]]
        best_loss[improved] = losses[improved]
        best[improved] = params[improved]
        if step > epochs:
            break
        moment1 = beta1 * moment1 + (1.0 - beta1) * grads
        moment2 = beta2 * moment2 + (1.0 - beta2) * grads * grads
        m_hat = moment1 / (1.0 - beta1**step)
        v_hat = moment2 / (1.0 - beta2**step)
        params -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    never = best_loss == math.inf  # no admissible iterate: keep the last one
    best[never] = params[never]
    for reg, row in zip(regs, best):
        reg.flat[...] = row
    return best_loss


@dataclass(frozen=True)
class EdgeBatch:
    """Featurized directed edges: aligned forward/backward feature rows and gains."""

    fwd: np.ndarray
    bwd: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.target)

    def take(self, idx: np.ndarray) -> "EdgeBatch":
        return EdgeBatch(self.fwd[idx], self.bwd[idx], self.target[idx])

    def extend(self, other: "EdgeBatch") -> "EdgeBatch":
        """This batch's rows followed by ``other``'s."""
        return EdgeBatch(
            np.concatenate([self.fwd, other.fwd]),
            np.concatenate([self.bwd, other.bwd]),
            np.concatenate([self.target, other.target]),
        )


def featurize(space: DesignSpace, samples: Sequence[EdgeSample]) -> EdgeBatch:
    """Feature rows of each sample's move (``fwd``) and its reverse (``bwd``)."""
    fwd = np.zeros((len(samples), feature_length(space)))
    bwd = np.zeros_like(fwd)
    for i, s in enumerate(samples):
        fwd[i] = edge_features(space, s.from_design, s.to_design)
        bwd[i] = edge_features(space, s.to_design, s.from_design)
    return EdgeBatch(fwd, bwd, np.array([s.gain for s in samples], dtype=float))


def pretrain_regressor(
    graph: GainGraph, hyper: RegressorHyper = RegressorHyper(), edges: EdgeBatch | None = None
) -> tuple[GainRegressor, float]:
    """Fit a fresh regressor to a task's measured edges (both directions).

    ``edges`` is the graph's ``edge_samples`` already featurized, when the
    caller has them; otherwise they are derived here.  Deterministic given
    ``hyper.seed``; when the graph holds more than ``hyper.max_samples``
    directed samples a seeded subset of edges is used.  Returns the
    regressor and its final training MAE.
    """
    space = graph.store.space
    if edges is None:
        edges = featurize(space, edge_samples(graph, directionized=False))
    if not len(edges):
        raise PlannerError(f"task {graph.task_id!r}: gain graph has no edges to train on")
    if hyper.max_samples is not None and 2 * len(edges) > hyper.max_samples:
        keep = max(1, hyper.max_samples // 2)
        rng = np.random.default_rng(hyper.seed)
        edges = edges.take(np.sort(rng.choice(len(edges), size=keep, replace=False)))
    # each edge, then its reverse: the reverse move's features are the edge's swapped
    fwd = np.empty((2 * len(edges), edges.fwd.shape[1]))
    bwd = np.empty_like(fwd)
    target = np.empty(2 * len(edges))
    fwd[0::2], fwd[1::2] = edges.fwd, edges.bwd
    bwd[0::2], bwd[1::2] = edges.bwd, edges.fwd
    target[0::2], target[1::2] = edges.target, -edges.target
    reg = GainRegressor(space, hyper)
    [mae] = _train([reg], fwd[None], bwd[None], target[None], hyper.epochs, hyper.learning_rate)
    return reg, float(mae)


def fine_tune(
    regs: Sequence[GainRegressor],
    buffer: "ReplayBuffer",
    benchmarks: Sequence[EdgeBatch],
    hypers: Sequence[RegressorHyper] | None = None,
) -> list[float]:
    """One fine-tuning round per regressor, on buffer contents plus a seeded benchmark subsample.

    ``benchmarks[i]`` holds regressor ``i``'s featurized benchmark edges and
    ``hypers[i]`` its round settings (default: its own hyper).  Each
    subsample holds ``replay_mix`` edges per buffer entry (capped by
    availability); a round never increases training MAE and never lets the
    predicted-gain distribution drift away from the round's targets
    (Wasserstein), because the best admissible iterate -- including the
    starting parameters -- wins.  Regressors whose rounds have the same row
    count and settings train together.  Returns each round's MAE, in order.
    """
    hypers = [reg.hyper for reg in regs] if hypers is None else list(hypers)
    if not len(regs) == len(benchmarks) == len(hypers):
        raise PlannerError("fine_tune needs one benchmark batch and one hyper per regressor")
    if not len(buffer):
        raise PlannerError("replay buffer is empty")
    replay = buffer.edges()
    groups: dict[tuple, list[tuple[int, EdgeBatch]]] = {}
    for i, (reg, bench, hyper) in enumerate(zip(regs, benchmarks, hypers)):
        if reg.space != buffer.space:
            raise PlannerError("regressor and replay buffer belong to different spaces")
        rows = replay
        n_bench = min(len(bench), int(round(hyper.replay_mix * len(replay))))
        if n_bench > 0:
            rng = np.random.default_rng(hyper.seed)
            picked = bench.take(np.sort(rng.choice(len(bench), size=n_bench, replace=False)))
            rows = replay.extend(picked)
        key = (len(rows), reg.flat.size, hyper.epochs, hyper.learning_rate)
        groups.setdefault(key, []).append((i, rows))
    maes = [math.inf] * len(regs)
    for (_, _, epochs, learning_rate), members in groups.items():
        losses = _train(
            [regs[i] for i, _ in members],
            np.stack([rows.fwd for _, rows in members]),
            np.stack([rows.bwd for _, rows in members]),
            np.stack([rows.target for _, rows in members]),
            epochs,
            learning_rate,
            keep_distribution=True,
        )
        for (i, _), loss in zip(members, losses):
            maes[i] = float(loss)
    return maes


# -------------------------------------------------------------- replay buffer


class ReplayBuffer:
    """Bounded FIFO of observed one-hop gains ``((from, to), gain)`` in one space.

    Each entry is featurized once, when appended; ``edges`` stacks those rows.
    """

    def __init__(self, space: DesignSpace, capacity: int = BUFFER_CAPACITY):
        if capacity < 1:
            raise PlannerError("buffer capacity must be >= 1")
        self.space = space
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)  # (sample, fwd row, bwd row)

    def append(self, from_design: DesignTuple, to_design: DesignTuple, gain: float) -> None:
        """Add an observed move; raises unless it is a one-hop move of the space with finite gain."""
        if not math.isfinite(gain):
            raise PlannerError("replay gain must be finite")
        sample = EdgeSample(from_design, to_design, float(gain))
        batch = featurize(self.space, [sample])
        self._entries.append((sample, batch.fwd[0], batch.bwd[0]))

    def entries(self) -> list[tuple[tuple[DesignTuple, DesignTuple], float]]:
        return [((s.from_design, s.to_design), s.gain) for s, _, _ in self._entries]

    def edges(self) -> EdgeBatch:
        """The entries' feature rows and gains, oldest first."""
        return EdgeBatch(
            np.stack([f for _, f, _ in self._entries]),
            np.stack([b for _, _, b in self._entries]),
            np.array([s.gain for s, _, _ in self._entries]),
        )

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

