"""Refinement loop: weave benchmark gains, pick a move, evaluate, update.

Each iteration scores every unevaluated one-hop move out of the current
design by weaving per-benchmark gains under the current similarity view.
The moves are enumerated as arrays of dimensions, choices and mixed-radix
ranks by stride arithmetic, and filtered against the ranks already
evaluated.  Retrieved gains come from one 2-D gather of the ``(tasks,
candidates + 1)`` cells of the store's ``(tasks, archs)`` performance matrix
(the candidates, then the origin), at columns found by ``searchsorted`` over
its sorted ranks; an OOD-flagged benchmark's gains come from one
``GainRegressor.predict`` call of its surrogate over the step's candidates.
Only the chosen move becomes a ``Modification``, a design tuple and a
``WovenScore``.  The loop applies it, evaluates it through a memoized oracle,
then feeds the observed gain back into the stacked transfer window (one push
for all benchmarks), the Bayes posterior and the OOD flags, and logs the
move.  The log is also the surrogates' replay: each step fine-tunes the
flagged benchmarks' surrogates on its last ``BUFFER_CAPACITY`` moves and a
sample of their measured edges, all held as choice arrays until a round
reads them.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .graph import build_graph, edge_samples, local_gains  # noqa: F401 (perfbench hooks)
from .planner import (
    EdgeBatch,
    GainRegressor,
    OodFlags,
    RegressorHyper,
    fine_tune,
    move_features,
    predict_gain,  # noqa: F401 (perfbench hook)
    pretrain_regressor,
    update_ood_flags,
    _is_count,
    _is_finite,
)
from .similarity import (
    SimilarityView,
    TransferWindow,
    bayes_update,
    explicit_similarity,
    init_similarity_kendall,
    uniform_similarity,
    update_transfer,
)
from .space import DesignTuple, Modification
from .store import KnowledgeStore

__all__ = [
    "EngineError",
    "SpaceExhausted",
    "EvaluationOracle",
    "FunctionOracle",
    "PlannerSettings",
    "RunConfig",
    "WovenScore",
    "Weave",
    "RefinementState",
    "IterationRecord",
    "RefinementReport",
    "RefinementEngine",
    "initial_model",
    "weave_scores",
    "select_modification",
    "write_report",
]

DEFAULT_WINDOW = 30
DEFAULT_WINDOW_OOD = 40
BUFFER_CAPACITY = 256  # latest logged moves that a fine-tuning round replays


class EngineError(ValueError):
    """Invalid engine configuration, state, or inputs."""


class SpaceExhausted(EngineError):
    """Every architecture reachable for continuation has been evaluated."""


# -------------------------------------------------------------------- oracle


class EvaluationOracle:
    """Memoizing evaluation capability: at most one real evaluation per design.

    Subclasses implement ``_evaluate``; ``call_count`` counts distinct designs
    and ``evaluations`` preserves first-evaluation order.
    """

    def __init__(self) -> None:
        self._memo: dict[DesignTuple, float] = {}

    def _evaluate(self, design: DesignTuple) -> float:
        raise NotImplementedError

    def evaluate(self, design: DesignTuple) -> float:
        # only a tuple of ints may hit: (True, 0) and (1.0, 0) equal (1, 0) but are no design
        if design in self._memo and type(design) is tuple and all(type(c) is int for c in design):
            return self._memo[design]
        value = float(self._evaluate(design))
        if not math.isfinite(value):
            raise EngineError(f"oracle returned non-finite performance for {design!r}")
        self._memo.setdefault(design, value)  # a look-alike never replaces its design's value
        return value

    @property
    def call_count(self) -> int:
        return len(self._memo)

    @property
    def evaluations(self) -> dict[DesignTuple, float]:
        """Evaluated designs in first-evaluation order."""
        return dict(self._memo)


class FunctionOracle(EvaluationOracle):
    """Oracle backed by a plain callable."""

    def __init__(self, fn: Callable[[DesignTuple], float]):
        super().__init__()
        self._fn = fn

    def _evaluate(self, design: DesignTuple) -> float:
        return self._fn(design)


# ------------------------------------------------------------------- configs


@dataclass(frozen=True)
class PlannerSettings:
    """Surrogate-regressor settings used when OOD adaptation is enabled."""

    hidden_dim: int = 64
    pretrain_epochs: int = 200
    finetune_epochs: int = 30
    replay_mix: float = 0.5

    def __post_init__(self) -> None:
        for epochs in (self.pretrain_epochs, self.finetune_epochs):
            self.hyper(epochs)  # PlannerError on settings no regressor accepts

    def hyper(self, epochs: int, seed: int = 0) -> RegressorHyper:
        """Hyperparameters of one surrogate training run under these settings."""
        return RegressorHyper(self.hidden_dim, epochs, seed, self.replay_mix)


@dataclass(frozen=True)
class RunConfig:
    """Everything a seeded refinement run depends on.

    ``window`` defaults to 30 when OOD adaptation is off and 40 when it is
    on, and a run sizes it to at most ``budget`` pairs; ``init_strategy`` is
    one of ``kendall`` (rank correlation of task statistics), ``uniform``, or
    ``explicit`` (normalized ``init_weights``).  ``unseen_task`` names the
    store task replayed as the evaluation oracle in CLI pipelines.  An empty
    ``init_weights`` is stored as None.  The OOD flag rule, the transfer
    fit's noise floor and the number of logged moves that fine-tuning
    replays are constants (``planner.LOW_WEIGHT_FACTOR``,
    ``planner.PERSIST_STEPS``, ``similarity.NOISE_FLOOR``,
    ``BUFFER_CAPACITY``).
    """

    budget: int = 100
    window: int | None = None
    seed: int = 0
    init_strategy: str = "kendall"
    init_weights: Mapping[str, float] | None = None
    ood_adaptation: bool = True
    dynamic_updates: bool = True
    unseen_task: str = "unseen"
    planner: PlannerSettings = field(default_factory=PlannerSettings)

    def __post_init__(self) -> None:
        for name in ("ood_adaptation", "dynamic_updates"):
            if not isinstance(getattr(self, name), bool):
                raise EngineError(f"{name} must be true or false")
        if self.init_weights is not None:
            if not isinstance(self.init_weights, Mapping) or not all(
                _is_finite(w) and w >= 0
                for w in self.init_weights.values()
            ):
                raise EngineError("init_weights must map task ids to finite weights >= 0")
            object.__setattr__(self, "init_weights", dict(self.init_weights) or None)
        if not _is_count(self.budget, 0):
            raise EngineError("budget must be an integer >= 0")
        if not _is_count(self.seed, 0):
            raise EngineError("seed must be an integer >= 0")
        if self.window is not None and not _is_count(self.window, 2):
            raise EngineError("window must be an integer >= 2 or null")
        if self.init_strategy not in ("kendall", "uniform", "explicit"):
            raise EngineError(f"unknown init_strategy {self.init_strategy!r}")
        if self.init_strategy == "explicit" and not self.init_weights:
            raise EngineError("init_strategy 'explicit' requires init_weights")
        if not isinstance(self.unseen_task, str) or not self.unseen_task:
            raise EngineError(f"unseen_task must be a non-empty string, got {self.unseen_task!r}")

    def resolved_window(self) -> int:
        if self.window is not None:
            return self.window
        return DEFAULT_WINDOW_OOD if self.ood_adaptation else DEFAULT_WINDOW

    @staticmethod
    def from_mapping(payload: Mapping) -> "RunConfig":
        payload = dict(payload)
        planner_part = payload.pop("planner", None)
        if planner_part is None:
            planner_part = {}
        if not isinstance(planner_part, Mapping):
            raise EngineError("planner config must be an object")
        known_planner = {f for f in PlannerSettings.__dataclass_fields__}
        extra = set(planner_part) - known_planner
        if extra:
            raise EngineError(f"unknown planner config keys: {sorted(extra)}")
        known = {f for f in RunConfig.__dataclass_fields__ if f != "planner"}
        extra = set(payload) - known
        if extra:
            raise EngineError(f"unknown config keys: {sorted(extra)}")
        try:
            return RunConfig(planner=PlannerSettings(**planner_part), **payload)
        except TypeError as exc:
            raise EngineError(f"invalid config: {exc}") from None


# ------------------------------------------------------------------- weaving


@dataclass(frozen=True)
class WovenScore:
    """Similarity-weighted score of one candidate move to ``target``, of mixed-radix ``rank``.

    ``contributions`` maps each task, in view order, to ``(source, value)``
    where source is ``retrieved``, ``predicted``, or ``absent`` (value None,
    contributes 0).
    """

    modification: Modification
    target: DesignTuple
    rank: int
    score: float
    contributions: dict[str, tuple[str, float | None]]


@dataclass
class RefinementState:
    """Mutable loop state for one refinement run.

    ``evaluated`` maps the mixed-radix rank of each evaluated design to its
    performance; the weave filters candidates against its keys.  ``log``
    holds the report's records; its step records are the moves that
    fine-tuning replays.
    """

    current: DesignTuple
    current_performance: float
    best: DesignTuple
    best_performance: float
    evaluated: dict[int, float]
    t: int
    budget: int
    view: SimilarityView
    transfers: TransferWindow
    flags: OodFlags
    log: list["IterationRecord"] = field(default_factory=list)


def initial_model(view: SimilarityView, store: KnowledgeStore) -> DesignTuple:
    """Similarity-weighted plurality vote over the benchmarks' best designs.

    Each benchmark votes, per dimension, for the choice of its best recorded
    architecture, with weight equal to its similarity; ties go to the lowest
    candidate index.
    """
    if not store.tasks:
        raise EngineError("store has no benchmark tasks")
    unknown = sorted(set(view.weights) - set(store.tasks))
    if unknown:
        raise EngineError(f"similarity view references unknown tasks: {unknown}")
    ids = store.best_architectures(list(view.weights))
    champions = list(map(store.space.tuple_at, store.arch_ranks[ids].tolist()))  # in view order
    choices: list[int] = []
    for d in range(len(store.space.dimensions)):
        tally: dict[int, float] = defaultdict(float)
        for champion, weight in zip(champions, view.weights.values()):
            tally[champion[d]] += weight
        winner = max(tally, key=lambda c: (tally[c], -c))
        choices.append(winner)
    return tuple(choices)


@dataclass(frozen=True)
class Weave:
    """Woven scores of the unevaluated one-hop moves out of ``origin``.

    Move ``i`` switches dimension ``dims[i]`` to candidate ``choices[i]``;
    its target has mixed-radix rank ``ranks[i]``, and the moves come in
    ``DesignSpace.neighbors`` order.  ``scores[i]`` is its similarity-weighted
    score.  ``gains[j, i]`` is view task ``tasks[j]``'s gain for move ``i`` --
    NaN when the task has none (``absent``) -- and ``predicted[j]`` marks a
    task whose gains come from its surrogate.  ``len()`` is the number of
    scored moves.
    """

    origin: DesignTuple
    dims: np.ndarray
    choices: np.ndarray
    ranks: np.ndarray
    tasks: tuple[str, ...]
    gains: np.ndarray
    predicted: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def move(self, i: int) -> tuple[Modification, DesignTuple]:
        """Move ``i`` as a ``(modification, target)`` pair."""
        origin, d, c = self.origin, int(self.dims[i]), int(self.choices[i])
        return Modification(d, origin[d], c), origin[:d] + (c,) + origin[d + 1 :]

    def woven(self, i: int) -> WovenScore:
        """Move ``i``'s score with its per-task contributions."""
        mod, target = self.move(i)
        contributions: dict[str, tuple[str, float | None]] = {}
        for tid, value, predicted in zip(
            self.tasks, self.gains[:, i].tolist(), self.predicted.tolist()
        ):
            if predicted:
                contributions[tid] = ("predicted", value)
            elif math.isnan(value):
                contributions[tid] = ("absent", None)
            else:
                contributions[tid] = ("retrieved", value)
        return WovenScore(mod, target, int(self.ranks[i]), float(self.scores[i]), contributions)


def weave_scores(
    state: RefinementState,
    store: KnowledgeStore,
    regressors: Mapping[str, GainRegressor],
    current: DesignTuple | None = None,
) -> Weave:
    """Score the unevaluated one-hop moves out of ``current`` by similarity-weighted gains.

    ``current`` defaults to ``state.current``.  Moves whose target's rank is
    a key of ``state.evaluated`` are left out.  Flagged tasks contribute
    surrogate predictions; other tasks contribute the gain read from the
    store's performance matrix, or nothing when either end of the move is
    unmeasured (``absent``: contributes 0, the move stays eligible).

    A retrieved gain is one subtraction ``there - here`` of the stored
    values, and each surrogate's ``predict`` runs every candidate as its own
    row, as ``predict_gain`` does.  Each score sums the tasks' ``weight *
    value`` terms, within ``tasks * eps`` times the sum of their magnitudes
    of their exact sum (``eps`` the float64 machine epsilon), as a
    per-candidate loop's sum is.
    """
    origin = state.current if current is None else current
    space = store.space
    rank = space.index_of(origin)
    dims, choices, ranks = space.hops(origin, state.evaluated, rank)
    tasks = tuple(state.view.weights)
    flagged = [False] * len(tasks)
    if regressors:  # only a task with a surrogate reads predictions
        flagged = [tid in regressors and state.flags.is_flagged(tid) for tid in tasks]
    predicted = np.array(flagged, dtype=bool)
    at_ranks = np.empty(len(ranks) + 1, dtype=np.intp)  # the candidates, then the origin
    at_ranks[:-1], at_ranks[-1] = ranks, rank
    at = store.performances_at(tasks, at_ranks)
    gains = at[:, :-1] - at[:, -1:]
    absent = np.isnan(gains)
    if True in flagged:
        absent[predicted] = False
        if len(ranks):
            starts = np.array([origin] * len(ranks), dtype=np.intp)
            ends = starts.copy()
            ends[np.arange(len(ranks)), dims] = choices
            moves = move_features(space, starts, ends)
            for j in np.flatnonzero(predicted):
                gains[j] = regressors[tasks[j]].predict(moves)
    terms = np.fromiter(state.view.weights.values(), np.float64, len(tasks))[:, None] * gains
    np.copyto(terms, 0.0, where=absent)
    return Weave(origin, dims, choices, ranks, tasks, gains, predicted, terms.sum(axis=0))


def select_modification(weave: Weave) -> WovenScore:
    """The argmax move by woven score; ties resolve to the lowest (dimension, choice).

    Move order does not matter; a NaN score ranks below every other.
    """
    if not len(weave):
        raise EngineError("no unevaluated candidate modifications to select from")
    return weave.woven(int(np.lexsort((weave.choices, weave.dims, -weave.scores))[0]))


# ------------------------------------------------------------------- reports


@dataclass(frozen=True)
class IterationRecord:
    """One report line: the executed move and the resulting state snapshot."""

    t: int
    event: str  # "initial" or "step"
    from_choices: tuple[int, ...] | None
    to_choices: tuple[int, ...]
    dimension: str | None
    from_label: str | None
    to_label: str | None
    woven_gain: float | None
    actual_gain: float | None
    performance: float
    best_performance: float
    weights: dict[str, float]
    flagged: tuple[str, ...]
    sources: dict[str, str]
    jumped: bool = False

    def to_record(self) -> dict:
        return {
            "t": self.t,
            "event": self.event,
            "from": list(self.from_choices) if self.from_choices is not None else None,
            "to": list(self.to_choices),
            "dimension": self.dimension,
            "from_choice": self.from_label,
            "to_choice": self.to_label,
            "woven_gain": self.woven_gain,
            "actual_gain": self.actual_gain,
            "performance": self.performance,
            "best_performance": self.best_performance,
            "weights": dict(self.weights),
            "flagged": list(self.flagged),
            "sources": dict(self.sources),
            "jumped": self.jumped,
        }


@dataclass(frozen=True)
class RefinementReport:
    """Outcome of one run: the best design found plus the full iteration log."""

    space_names: tuple[str, ...]
    initial_choices: tuple[int, ...]
    initial_labels: tuple[str, ...]
    initial_performance: float
    best_choices: tuple[int, ...]
    best_labels: tuple[str, ...]
    best_performance: float
    oracle_calls: int
    iterations: int
    budget: int
    config: dict
    records: tuple[IterationRecord, ...]

    def to_records(self) -> list[dict]:
        return [r.to_record() for r in self.records]

    def summary(self) -> dict:
        return {
            "dimensions": list(self.space_names),
            "initial": {
                "choices": list(self.initial_choices),
                "labels": list(self.initial_labels),
                "performance": self.initial_performance,
            },
            "best": {
                "choices": list(self.best_choices),
                "labels": list(self.best_labels),
                "performance": self.best_performance,
            },
            "oracle_calls": self.oracle_calls,
            "iterations": self.iterations,
            "budget": self.budget,
            "config": self.config,
        }


def write_report(report: RefinementReport, out_dir: str | Path) -> dict[str, Path]:
    """Write ``report.jsonl``, ``summary.json`` and a plot-ready ``trajectory.csv``.

    All files are deterministic functions of the report (sorted keys, no
    wall-clock content), so seeded runs reproduce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.jsonl"
    with report_path.open("w", encoding="utf-8") as fh:
        for record in report.to_records():
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(report.summary(), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    trajectory_path = out / "trajectory.csv"
    with trajectory_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "series", "value"])
        for rec in report.records:
            writer.writerow([rec.t, "performance", repr(rec.performance)])
            writer.writerow([rec.t, "best_performance", repr(rec.best_performance)])
            if rec.event == "step":
                writer.writerow([rec.t, "woven_gain", repr(rec.woven_gain)])
                writer.writerow([rec.t, "actual_gain", repr(rec.actual_gain)])
            for tid, weight in rec.weights.items():
                writer.writerow([rec.t, f"weight:{tid}", repr(weight)])
    return {"report": report_path, "summary": summary_path, "trajectory": trajectory_path}


# -------------------------------------------------------------------- engine


class RefinementEngine:
    """Drives Algorithm-style refinement of an unseen task over a benchmark store."""

    def __init__(
        self,
        store: KnowledgeStore,
        config: RunConfig = RunConfig(),
        target_stats: Mapping[str, float] | None = None,
    ):
        if not store.tasks:
            raise EngineError("store has no benchmark tasks")
        self.store = store
        self.space = store.space
        self.config = config
        self.target_stats = dict(target_stats) if target_stats is not None else None
        self.regressors: dict[str, GainRegressor] = {}
        self._bench_edges: dict[str, EdgeBatch] = {}

    # ------------------------------------------------------------- lifecycle
    def _initial_view(self) -> SimilarityView:
        strategy = self.config.init_strategy
        if strategy == "uniform":
            return uniform_similarity(self.store.task_ids)
        if strategy == "explicit":
            weights = self.config.init_weights or {}
            unknown = sorted(set(weights) - set(self.store.tasks))
            missing = sorted(set(self.store.tasks) - set(weights))
            if unknown or missing:
                raise EngineError(
                    f"explicit init weights mismatch store tasks: missing {missing}, unknown {unknown}"
                )
            return explicit_similarity({tid: weights[tid] for tid in self.store.task_ids})
        if self.target_stats is None:
            raise EngineError("init_strategy 'kendall' needs target task statistics")
        return init_similarity_kendall(self.target_stats, self.store)

    def new_state(self, oracle: EvaluationOracle) -> RefinementState:
        """Initialize the similarity view, evaluate the initial model, build state."""
        view = self._initial_view()
        start = initial_model(view, self.store)
        performance = oracle.evaluate(start)
        # a window never holds more pairs than the run takes steps
        window = max(2, min(self.config.resolved_window(), self.config.budget))
        state = RefinementState(
            current=start,
            current_performance=performance,
            best=start,
            best_performance=performance,
            evaluated={self.space.index_of(start): performance},
            t=0,
            budget=self.config.budget,
            view=view,
            transfers=TransferWindow(self.store.task_ids, window),
            flags=OodFlags(self.store.task_ids),
        )
        state.log.append(
            IterationRecord(
                t=0,
                event="initial",
                from_choices=None,
                to_choices=start,
                dimension=None,
                from_label=None,
                to_label=None,
                woven_gain=None,
                actual_gain=None,
                performance=performance,
                best_performance=performance,
                weights=dict(view.weights),
                flagged=state.flags.flagged_tasks(),
                sources={},
            )
        )
        return state

    # ------------------------------------------------------------ regressors
    def _benchmark_edges(self, task_id: str) -> EdgeBatch:
        """A task's measured edges as choice arrays, read from the store once per engine."""
        if task_id not in self._bench_edges:
            arch_from, arch_to, gains = self.store.edges(task_id)
            ranks = self.store.arch_ranks[np.stack([arch_from, arch_to])]
            self._bench_edges[task_id] = EdgeBatch(*self.space.choices_at(ranks), gains)
        return self._bench_edges[task_id]

    def _hyper(self, task_id: str, epochs: int, salt: int = 0) -> RegressorHyper:
        """Surrogate settings for one task; ``salt`` seeds each fine-tuning round apart."""
        idx = self.store.task_ids.index(task_id)
        seq = np.random.SeedSequence([int(self.config.seed), idx, salt])
        return self.config.planner.hyper(epochs, int(seq.generate_state(1)[0]))

    def ensure_regressor(self, task_id: str) -> GainRegressor | None:
        """Pretrain (once) the surrogate for a flagged task; None for a task without edges."""
        if task_id in self.regressors:
            return self.regressors[task_id]
        edges = self._benchmark_edges(task_id)
        if not len(edges):
            return None
        hyper = self._hyper(task_id, self.config.planner.pretrain_epochs)
        reg, _ = pretrain_regressor(self.space, task_id, edges, hyper)
        self.regressors[task_id] = reg
        return reg

    # ------------------------------------------------------------------ step
    def _jump_target(self, state: RefinementState) -> tuple[DesignTuple, float]:
        """Best evaluated design that still has an unevaluated neighbor, and its performance.

        Ties go to the lowest rank, which is the lowest tuple.
        """
        ranked = sorted(state.evaluated.items(), key=lambda item: (-item[1], item[0]))
        for rank, performance in ranked:
            design = self.space.tuple_at(rank)
            if self.space.hops(design, state.evaluated).size:
                return design, performance
        raise SpaceExhausted("every reachable architecture has been evaluated")

    def step(self, state: RefinementState, oracle: EvaluationOracle) -> RefinementState:
        """One refinement iteration; atomic (oracle failure leaves state intact).

        The run moves to the evaluated target even when its gain is negative.
        """
        if state.t >= state.budget:
            raise EngineError("iteration budget exhausted")
        origin, origin_performance = state.current, state.current_performance
        weave = weave_scores(state, self.store, self.regressors, current=origin)
        jumped = not len(weave)
        if jumped:
            origin, origin_performance = self._jump_target(state)
            weave = weave_scores(state, self.store, self.regressors, current=origin)
        chosen = select_modification(weave)
        chosen_mod, target = chosen.modification, chosen.target
        performance = oracle.evaluate(target)  # the only fallible call; state untouched so far

        # ---- commit phase: no exceptions past this point in normal operation
        actual_gain = performance - origin_performance
        state.evaluated[chosen.rank] = performance
        if performance > state.best_performance:
            state.best, state.best_performance = target, performance
        retrieved = [value for _, value in chosen.contributions.values()]  # in view order
        update_transfer(state.transfers, actual_gain, retrieved)
        if self.config.dynamic_updates:
            state.view = bayes_update(state.view, state.transfers, actual_gain, retrieved)
        if self.config.ood_adaptation:
            update_ood_flags(state.flags, state.view)
        state.t += 1
        state.current, state.current_performance = target, performance
        dim = self.space.dimensions[chosen_mod.dim]
        state.log.append(
            IterationRecord(
                t=state.t,
                event="step",
                from_choices=origin,
                to_choices=target,
                dimension=dim.name,
                from_label=dim.candidates[chosen_mod.from_choice],
                to_label=dim.candidates[chosen_mod.to_choice],
                woven_gain=chosen.score,
                actual_gain=actual_gain,
                performance=performance,
                best_performance=state.best_performance,
                weights=dict(state.view.weights),
                flagged=state.flags.flagged_tasks(),
                sources={tid: src for tid, (src, _) in chosen.contributions.items()},
                jumped=jumped,
            )
        )
        if self.config.ood_adaptation:  # fine-tune on the last BUFFER_CAPACITY moves, oldest first
            tuned = [
                tid for tid in state.flags.flagged_tasks() if self.ensure_regressor(tid) is not None
            ]
            if tuned:
                steps = [r for r in state.log[-BUFFER_CAPACITY:] if r.event == "step"]
                moves = np.array([(r.from_choices, r.to_choices) for r in steps], dtype=np.intp)
                gains = np.array([r.actual_gain for r in steps])
                epochs = self.config.planner.finetune_epochs
                fine_tune(
                    [self.regressors[tid] for tid in tuned],
                    EdgeBatch(moves[:, 0], moves[:, 1], gains),
                    [self._benchmark_edges(tid) for tid in tuned],
                    [self._hyper(tid, epochs, salt=state.t) for tid in tuned],
                )
        return state

    # ------------------------------------------------------------------- run
    def run(self, oracle: EvaluationOracle) -> RefinementReport:
        """Full budgeted run; stops early when ``step`` raises ``SpaceExhausted``."""
        state = self.new_state(oracle)
        while state.t < state.budget:
            try:
                self.step(state, oracle)
            except SpaceExhausted:
                break
        return self.report(state, oracle)

    def report(self, state: RefinementState, oracle: EvaluationOracle) -> RefinementReport:
        return RefinementReport(
            space_names=self.space.dimension_names,
            initial_choices=state.log[0].to_choices,
            initial_labels=self.space.labels_of(state.log[0].to_choices),
            initial_performance=state.log[0].performance,
            best_choices=state.best,
            best_labels=self.space.labels_of(state.best),
            best_performance=state.best_performance,
            oracle_calls=oracle.call_count,
            iterations=state.t,
            budget=state.budget,
            config=asdict(self.config),
            records=tuple(state.log),
        )
