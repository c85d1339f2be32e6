"""Adaptation planner: OOD flags, replay buffer, and the edge-gain regressor.

When a benchmark's similarity weight stays below threshold for several
consecutive iterations it is flagged as out-of-distribution.  From then on
its contribution to move scoring comes from a small learned surrogate -- a
two-layer perceptron over explicit edge features, trained with L1 loss on the
benchmark's measured edges and fine-tuned online from a replay buffer of
gains actually observed on the target task.

Each job has one path.  ``move_features`` writes the feature rows of a batch
of moves and of their reverses by index arithmetic; ``edge_features``,
``featurize`` and the replay buffer are calls of it.  ``GainRegressor.predict``
is the one forward pass, for ``predict_gain`` and the weave alike, and
``_stacked_loss_grads`` the one training kernel.

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

from .graph import edge_samples  # noqa: F401 (perfbench hook)
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
    "move_features",
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
    """A one-hop move's ``move_features`` row, ``one_hot(from) ++ (one_hot(to) - one_hot(from))``."""
    return _design_features(space, [from_design], [to_design])[0, 0]


def move_features(space: DesignSpace, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Feature rows of the moves ``starts[i] -> ends[i]`` and of their reverses.

    ``starts`` and ``ends`` are ``(moves, dims)`` arrays of in-range choices.
    Returns ``(2, moves, features)``: ``[0, i]`` is move ``i``'s row and
    ``[1, i]`` the reverse move's.  A row is ``one_hot(from) ++ (one_hot(to)
    - one_hot(from))``: its delta part is zero except in the changed
    dimension's block, which holds one +1 (target candidate) and one -1
    (source).  Raises PlannerError unless every move changes exactly one
    dimension.
    """
    sizes = [len(d.candidates) for d in space.dimensions]
    width = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1])
    changed = starts != ends
    counts = np.count_nonzero(changed, axis=1)
    if (counts != 1).any():
        bad = int(np.flatnonzero(counts != 1)[0])
        raise PlannerError(
            "edge features need designs one modification apart, "
            f"got {tuple(starts[bad].tolist())} -> {tuple(ends[bad].tolist())}"
        )
    at = np.arange(len(starts))
    dim = changed.argmax(axis=1)
    delta = width + offsets[dim]  # the changed dimension's block of the delta part
    a, b = starts[at, dim], ends[at, dim]
    rows = np.zeros((2, len(starts), 2 * width))
    rows[0, at[:, None], offsets + starts] = 1.0
    rows[0, at, delta + b] = 1.0
    rows[0, at, delta + a] = -1.0
    rows[1, at[:, None], offsets + ends] = 1.0
    rows[1, at, delta + a] = 1.0
    rows[1, at, delta + b] = -1.0
    return rows


def _design_features(
    space: DesignSpace, starts: Sequence[DesignTuple], ends: Sequence[DesignTuple]
) -> np.ndarray:
    """``move_features`` of moves given as design tuples; DesignSpaceError for a design outside."""
    for start, end in zip(starts, ends):
        space.validate(start)
        space.validate(end)
    shape = (len(starts), len(space))
    return move_features(
        space,
        np.array(starts, dtype=np.intp).reshape(shape),
        np.array(ends, dtype=np.intp).reshape(shape),
    )


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
        if not (math.isfinite(self.replay_mix) and self.replay_mix >= 0):
            raise PlannerError("replay_mix must be finite and >= 0")


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
    updates as a whole; ``params`` returns its ``w_in``, ``b_in`` and
    ``w_out`` blocks as views into it.  The output layer starts at zero, so
    an untrained regressor predicts exactly 0 for every edge.
    """

    def __init__(self, space: DesignSpace, hyper: RegressorHyper = RegressorHyper()):
        self.space = space
        self.hyper = hyper
        d_in = feature_length(space)
        rng = np.random.default_rng(hyper.seed)
        w_in = rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(hyper.hidden_dim, d_in))
        self.flat = np.concatenate([w_in.ravel(), np.zeros(2 * hyper.hidden_dim)])
        self._w_in, self._b_in, self._w_out = _blocks(self.flat, hyper.hidden_dim)

    def params(self) -> dict[str, np.ndarray]:
        """The parameter blocks as writable views into ``flat``."""
        return {"w_in": self._w_in, "b_in": self._b_in, "w_out": self._w_out}

    def predict(self, moves: np.ndarray) -> np.ndarray:
        """Antisymmetrized gains of ``(2, moves, features)`` rows, as ``move_features`` writes them.

        Every row runs as its own ``(1, features)`` product, so a move's
        prediction has the same bits in a batch of any size.
        """
        rows = moves.reshape(2, -1, 1, moves.shape[-1])
        raw = (np.tanh(rows @ self._w_in.T + self._b_in) @ self._w_out)[..., 0]
        return (raw[0] - raw[1]) / 2.0


def predict_gain(reg: GainRegressor, from_design: DesignTuple, to_design: DesignTuple) -> float:
    """Estimated gain of a one-hop move; ``predict(a,b) == -predict(b,a)`` exactly."""
    return float(reg.predict(_design_features(reg.space, [from_design], [to_design]))[0])


def _stacked_loss_grads(
    params: np.ndarray,
    hidden: int,
    moves: np.ndarray,
    target: np.ndarray,
    grads: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-regressor MAE and predictions of stacked regressors; (sub)gradients into ``grads``.

    ``params`` is ``(tasks, flat)``, ``moves`` is ``(2, tasks, rows,
    features)`` -- each row's forward move, then its reverse -- and
    ``target`` is ``(tasks, rows)``.  With ``grads`` (shaped like
    ``params``) the flat gradients are written into it; without, the
    backward pass is skipped.  ``moves``, ``params`` and ``target`` are
    never written.

    Exactness contract: every output element has the same operands and the
    same order of operations as one regressor's plain 2-D computation, so
    stacking changes no bit.  Allowed are one ``np.matmul`` per layer over
    the stacked array (numpy makes the same per-slice BLAS call for each
    slice), in-place elementwise ops in the same order, and carrying the
    reverse rows' ``dz`` as its exact negation (IEEE rounding is
    sign-symmetric), whose terms are then subtracted instead of added.
    The same per-slice form makes prediction batch-independent:
    ``GainRegressor.predict`` runs each move as a ``(1, features)`` slice.
    A single ``(moves, features)`` product is not exact.  Gathering weight
    columns for one-hot features and fusing forward and reverse rows into
    one product change bits too; they wait for an equivalence tool with a
    looser contract (ROADMAP item 1).
    """
    w_in, b_in, w_out = _blocks(params, hidden)
    h = np.matmul(moves, w_in.transpose(0, 2, 1))  # (2, tasks, rows, hidden)
    h += b_in[:, None, :]
    np.tanh(h, out=h)
    raw = np.matmul(h, w_out[:, :, None])[..., 0]
    pred = (raw[0] - raw[1]) / 2.0
    resid = pred - target
    losses = np.abs(resid).sum(axis=1) / resid.shape[1]  # np.mean's arithmetic, without its overhead
    if grads is None:
        return losses, pred
    d_w_in, d_b_in, d_w_out = _blocks(grads, hidden)
    g = (np.sign(resid) / (2.0 * resid.shape[1]))[:, :, None]  # d(loss)/d(raw_f); negate for raw_b
    per_dir = np.matmul(h.transpose(0, 1, 3, 2), g)[..., 0]
    np.subtract(per_dir[0], per_dir[1], out=d_w_out)
    np.multiply(h, h, out=h)
    np.subtract(1.0, h, out=h)
    h *= g * w_out[:, None, :]  # h[0] is dz_f; h[1] is -dz_b, exactly
    per_dir = np.matmul(h.transpose(0, 1, 3, 2), moves)
    np.subtract(per_dir[0], per_dir[1], out=d_w_in)
    per_dir = h.sum(axis=2)
    np.subtract(per_dir[0], per_dir[1], out=d_b_in)
    return losses, pred


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

    Exactness contract: the result is bit for bit that of plain per-task
    Adam with fresh temporaries (``_stacked_loss_grads`` states the
    allowed kernel rewrites).  Adam's moments and step are updated in place,
    each elementwise op on the same operands in the same order.  The
    Wasserstein check compares sorted predictions with targets sorted once;
    with equal sample sizes that is ``wasserstein_1d``'s own arithmetic.
    The last evaluation only picks the best iterate, so it computes no
    gradient.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    hidden = regs[0].hyper.hidden_dim
    moves = np.stack([fwd, bwd])
    params = np.stack([reg.flat for reg in regs])
    grads = np.empty_like(params)
    work = np.empty_like(params)
    moment1 = np.zeros_like(params)
    moment2 = np.zeros_like(params)
    best = params.copy()
    best_loss = np.full(len(regs), math.inf)
    bound: np.ndarray | None = None
    for step in range(1, epochs + 2):
        last = step > epochs
        losses, pred = _stacked_loss_grads(params, hidden, moves, target, None if last else grads)
        improved = np.flatnonzero(losses < best_loss)
        if keep_distribution:
            if bound is None:  # the starting point sets the bound, so it is admissible
                bound = np.array([wasserstein_1d(p, t) + 1e-12 for p, t in zip(pred, target)])
                sorted_target = np.sort(target, axis=1)
            elif len(improved):  # a lower loss is finite, so those predictions are too
                gaps = np.abs(np.sort(pred[improved], axis=1) - sorted_target[improved])
                improved = improved[gaps.sum(axis=1) / gaps.shape[1] <= bound[improved]]
        best_loss[improved] = losses[improved]
        best[improved] = params[improved]
        if last:
            break
        moment1 *= beta1
        np.multiply(grads, 1.0 - beta1, out=work)
        moment1 += work
        moment2 *= beta2
        np.multiply(grads, 1.0 - beta2, out=work)
        work *= grads
        moment2 += work
        np.divide(moment1, 1.0 - beta1**step, out=work)  # m_hat
        work *= learning_rate
        np.divide(moment2, 1.0 - beta2**step, out=grads)  # v_hat
        np.sqrt(grads, out=grads)
        grads += eps
        work /= grads
        params -= work
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


def featurize(space: DesignSpace, samples: Sequence) -> EdgeBatch:
    """Feature rows of each ``EdgeSample``'s move (``fwd``) and its reverse (``bwd``).

    Raises DesignSpaceError for a design outside the space and PlannerError
    for a pair that is not one move apart.
    """
    starts = [s.from_design for s in samples]
    fwd, bwd = _design_features(space, starts, [s.to_design for s in samples])
    return EdgeBatch(fwd, bwd, np.array([s.gain for s in samples], dtype=float))


def pretrain_regressor(
    space: DesignSpace, task_id: str, edges: EdgeBatch, hyper: RegressorHyper = RegressorHyper()
) -> tuple[GainRegressor, float]:
    """Fit a fresh regressor to a task's featurized measured edges (both directions).

    Deterministic given ``hyper.seed``; when the edges make more than
    ``hyper.max_samples`` directed samples a seeded subset of edges is used.
    Returns the regressor and its final training MAE.
    """
    if not len(edges):
        raise PlannerError(f"task {task_id!r}: no edges to train on")
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
    """Bounded FIFO of observed one-hop gains in one space.

    Each move is featurized once, when appended, and kept only as its
    feature rows and gain; ``edges`` stacks them.
    """

    def __init__(self, space: DesignSpace, capacity: int = BUFFER_CAPACITY):
        if capacity < 1:
            raise PlannerError("buffer capacity must be >= 1")
        self.space = space
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)  # (fwd row, bwd row, gain)

    def append(self, from_design: DesignTuple, to_design: DesignTuple, gain: float) -> None:
        """Add an observed move; raises unless it is a one-hop move of the space with finite gain."""
        if not math.isfinite(gain):
            raise PlannerError("replay gain must be finite")
        fwd, bwd = _design_features(self.space, [from_design], [to_design])
        self._entries.append((fwd[0], bwd[0], float(gain)))

    def edges(self) -> EdgeBatch:
        """The entries' feature rows and gains, oldest first."""
        fwd, bwd, gains = zip(*self._entries)
        return EdgeBatch(np.stack(fwd), np.stack(bwd), np.array(gains))

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

    def state(self, task_id: str) -> FlagState:
        if task_id not in self._state:
            raise PlannerError(f"unknown task {task_id!r}")
        return self._state[task_id]

    def is_flagged(self, task_id: str) -> bool:
        return self.state(task_id).flagged

    def flagged_tasks(self) -> tuple[str, ...]:
        return tuple(tid for tid, st in sorted(self._state.items()) if st.flagged)


def update_ood_flags(
    flags: OodFlags,
    view: SimilarityView,
    rel_threshold: float = LOW_WEIGHT_FACTOR,
    persist_steps: int = PERSIST_STEPS,
) -> OodFlags:
    """Advance flag state from the current similarity view (in place).

    A task is *low* this iteration iff its weight is below ``rel_threshold /
    n_tasks`` (the threshold is relative to a uniform view).
    ``persist_steps`` consecutive low iterations flag the task; flags are
    sticky and a flagged task's streak freezes, so ``flagged iff streak >=
    persist_steps`` stays true for the rest of the run.  A view task the
    flags do not know raises PlannerError before any state changes.
    """
    if persist_steps < 1:
        raise PlannerError("persist_steps must be >= 1")
    if not math.isfinite(rel_threshold) or rel_threshold < 0.0:
        raise PlannerError("rel_threshold must be finite and >= 0")
    n = len(view.weights)
    threshold = rel_threshold / n
    states = [flags.state(tid) for tid in view.weights]
    for st, weight in zip(states, view.weights.values()):
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

