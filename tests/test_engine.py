"""Refinement engine: weaving, selection, state updates, reports."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from conftest import make_space
from mdesign import engine as engine_module
from mdesign import similarity as similarity_module
from mdesign.engine import (
    DEFAULT_WINDOW,
    DEFAULT_WINDOW_OOD,
    EngineError,
    EvaluationOracle,
    FunctionOracle,
    PlannerSettings,
    RefinementEngine,
    RefinementState,
    RunConfig,
    SpaceExhausted,
    Weave,
    initial_model,
    select_modification,
    weave_scores,
    write_report,
)
from mdesign.graph import build_graph
from mdesign.harness import CorrelationSpec, generate_landscapes
from mdesign.planner import (
    GainRegressor,
    OodFlags,
    PlannerError,
    RegressorHyper,
    ReplayBuffer,
    pretrain_regressor,
)
from mdesign.similarity import (
    SimilarityView,
    TransferWindow,
    explicit_similarity,
    uniform_similarity,
)
from mdesign.space import Modification
from mdesign.store import KnowledgeStore, TaskRecord
from oracles import (
    ReferenceTransferWindow,
    brute_weave,
    reference_select,
    reference_update_transfers,
    reference_weave,
)


def utility_perf(utilities):
    def perf(design):
        return float(sum(u[c] for u, c in zip(utilities, design)))

    return perf


def match_anti_store(seed: int = 0):
    """Two benchmarks over a 3x3 grid: one equals the truth, one is its negation."""
    space = make_space(3, 3)
    rng = np.random.default_rng(seed)
    utilities = [rng.normal(0.0, 0.2, size=3) for _ in range(2)]
    perf = utility_perf(utilities)
    rows = []
    for design in space.iter_tuples():
        rows.append(("anti", design, -perf(design)))
        rows.append(("match", design, perf(design)))
    tasks = [TaskRecord("anti"), TaskRecord("match")]
    store = KnowledgeStore.build(space, tasks, rows)
    return store, perf


def quick_config(**kw) -> RunConfig:
    planner = kw.pop(
        "planner",
        PlannerSettings(hidden_dim=8, pretrain_epochs=30, finetune_epochs=10),
    )
    defaults = dict(budget=10, init_strategy="uniform", planner=planner)
    defaults.update(kw)
    return RunConfig(**defaults)


# -------------------------------------------------------------------- oracles


def test_oracle_memoizes_and_counts():
    calls = []

    def fn(design):
        calls.append(design)
        return 1.0

    oracle = FunctionOracle(fn)
    assert oracle.evaluate((0, 0)) == 1.0
    assert oracle.evaluate((0, 0)) == 1.0
    assert calls == [(0, 0)]
    assert oracle.call_count == 1
    oracle.evaluate((1, 0))
    assert oracle.call_count == 2
    assert list(oracle.evaluations) == [(0, 0), (1, 0)]


def test_oracle_rejects_non_finite():
    oracle = FunctionOracle(lambda design: float("nan"))
    with pytest.raises(EngineError, match="non-finite"):
        oracle.evaluate((0,))


# -------------------------------------------------------------- initial model


def test_initial_model_single_benchmark_copies_its_best():
    store, perf = match_anti_store(seed=1)
    sub = store.subset(["match"])
    view = uniform_similarity(["match"])
    best_id, _ = sub.best_architecture("match")
    assert initial_model(view, sub) == sub.arch_tuple(best_id)


def test_initial_model_weighted_vote_per_dimension():
    space = make_space(2, 2)
    rows = [
        # task a peaks at (0, 1); task b peaks at (1, 1)
        ("a", (0, 0), 0.1), ("a", (0, 1), 0.9), ("a", (1, 0), 0.0), ("a", (1, 1), 0.2),
        ("b", (0, 0), 0.1), ("b", (0, 1), 0.2), ("b", (1, 0), 0.0), ("b", (1, 1), 0.9),
    ]
    store = KnowledgeStore.build(space, [TaskRecord("a"), TaskRecord("b")], rows)
    heavy_a = explicit_similarity({"a": 0.7, "b": 0.3})
    # dimension 0: a votes 0 (0.7) vs b votes 1 (0.3); dimension 1: both vote 1
    assert initial_model(heavy_a, store) == (0, 1)
    heavy_b = explicit_similarity({"a": 0.3, "b": 0.7})
    assert initial_model(heavy_b, store) == (1, 1)


def test_initial_model_tie_prefers_lowest_candidate():
    space = make_space(2, 2)
    rows = [
        ("a", (0, 0), 0.9), ("a", (1, 1), 0.1),
        ("b", (1, 1), 0.9), ("b", (0, 0), 0.1),
    ]
    store = KnowledgeStore.build(space, [TaskRecord("a"), TaskRecord("b")], rows)
    view = explicit_similarity({"a": 0.5, "b": 0.5})
    assert initial_model(view, store) == (0, 0)


def test_initial_model_rejects_unknown_tasks():
    store, _ = match_anti_store()
    with pytest.raises(EngineError, match="unknown"):
        initial_model(uniform_similarity(["match", "ghost"]), store)


# -------------------------------------------------------- weaving and selection


def woven_all(weave):
    """Every scored candidate's ``WovenScore``, in candidate order."""
    return [weave.woven(i) for i in range(len(weave))]


def make_state(store, config=None, oracle=None):
    engine = RefinementEngine(store, config or quick_config())
    oracle = oracle or FunctionOracle(lambda d: 0.0)
    return engine, engine.new_state(oracle), oracle


def test_weave_scores_weighted_sum():
    space = make_space(2, 2)
    rows = [
        ("a", (0, 0), 0.50), ("a", (1, 0), 0.60), ("a", (0, 1), 0.50),
        ("b", (0, 0), 0.50), ("b", (1, 0), 0.48), ("b", (0, 1), 0.50),
    ]
    store = KnowledgeStore.build(space, [TaskRecord("a"), TaskRecord("b")], rows)
    config = quick_config(init_strategy="explicit", init_weights={"a": 0.7, "b": 0.3})
    engine = RefinementEngine(store, config)
    oracle = FunctionOracle(lambda d: {(0, 0): 0.5}.get(d, 0.4))
    state = engine.new_state(oracle)
    state.evaluated, state.evaluated_ranks = {}, set()  # score every neighbor of (0, 0)
    scores = {
        s.target: s
        for s in woven_all(weave_scores(state, engine.store, engine.regressors, current=(0, 0)))
    }
    # move to (1, 0): 0.7 * 0.10 + 0.3 * (-0.02) = 0.064
    assert scores[(1, 0)].score == pytest.approx(0.064, rel=1e-12)
    assert scores[(1, 0)].contributions["a"] == ("retrieved", pytest.approx(0.10))
    assert scores[(1, 0)].contributions["b"] == ("retrieved", pytest.approx(-0.02))
    # move to (0, 1): both benchmarks flat, score exactly 0
    assert scores[(0, 1)].score == 0.0


def test_weave_unmeasured_edges_are_neutral_but_eligible():
    space = make_space(2, 2)
    rows = [("a", (0, 0), 0.5), ("a", (1, 0), 0.6)]  # nothing known about (0, 1)
    store = KnowledgeStore.build(space, [TaskRecord("a")], rows)
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(lambda d: 0.5)
    state = engine.new_state(oracle)
    state.evaluated, state.evaluated_ranks = {}, set()
    scores = {
        s.target: s
        for s in woven_all(weave_scores(state, engine.store, engine.regressors, current=(0, 0)))
    }
    assert scores[(0, 1)].score == 0.0
    assert scores[(0, 1)].contributions["a"] == ("absent", None)
    assert scores[(1, 0)].contributions["a"][0] == "retrieved"


def test_weave_excludes_already_evaluated_targets():
    store, perf = match_anti_store()
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    nbr = engine.space.neighbors(state.current)[0][1]
    state.evaluated[nbr] = 0.0
    state.evaluated_ranks.add(engine.space.index_of(nbr))
    scores = woven_all(weave_scores(state, engine.store, engine.regressors))
    assert all(s.target != nbr for s in scores)


def test_weave_flagged_task_uses_surrogate():
    store, perf = match_anti_store(seed=2)
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    state.flags.state("anti").flagged = True
    state.flags.state("anti").low_streak = 5
    reg = engine.ensure_regressor("anti")
    assert reg is not None
    scores = woven_all(weave_scores(state, engine.store, engine.regressors))
    from mdesign.planner import predict_gain

    for s in scores:
        src, value = s.contributions["anti"]
        assert src == "predicted"
        assert value == predict_gain(reg, state.current, s.target)
        assert s.contributions["match"][0] == "retrieved"


def test_select_modification_argmax_and_ties():
    def ws(*scored):
        """A weave out of (0, 0) over no tasks with the given ``(score, dim, to_choice)`` moves."""
        moves = np.array([(dim, to_choice) for _, dim, to_choice in scored], dtype=np.intp)
        moves = moves.reshape(-1, 2)
        return Weave(
            (0, 0),
            moves[:, 0],
            moves[:, 1],
            np.zeros(len(scored), dtype=np.intp),
            (),
            np.empty((0, len(scored))),
            np.empty(0, dtype=bool),
            np.array([score for score, _, _ in scored], dtype=float),
        )

    assert select_modification(ws((0.1, 0, 1), (0.3, 1, 1))).modification == Modification(1, 0, 1)
    # tie on score: lowest dimension wins, then lowest target choice
    assert select_modification(
        ws((0.2, 1, 1), (0.2, 0, 2), (0.2, 0, 1))
    ).modification == Modification(0, 0, 1)
    with pytest.raises(EngineError):
        select_modification(ws())


def test_woven_score_matches_fsum_oracle():
    store, perf = match_anti_store(seed=5)
    config = quick_config(init_strategy="explicit", init_weights={"match": 0.6, "anti": 0.4})
    engine = RefinementEngine(store, config)
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    scores = woven_all(weave_scores(state, engine.store, engine.regressors))
    for s in scores:
        expected = brute_weave(
            state.view.weights, {tid: v for tid, (_, v) in s.contributions.items()}
        )
        assert s.score == pytest.approx(expected, rel=1e-12, abs=1e-15)


def bits(value):
    """A float's exact bytes (so the sign of zero counts); None stays None."""
    return None if value is None else np.float64(value).tobytes()


def random_weave_case(rng, hidden):
    """A random store, view, flag set, trained regressors, origin and its candidates.

    Tasks measure part of the space; the view lists them in shuffled order,
    sometimes plus a task the store does not hold, with zero, subnormal,
    tiny and ordinary weights; from none to all of them are flagged.
    """
    space = make_space(*rng.integers(2, 5, size=int(rng.integers(1, 4))))
    designs = list(space.iter_tuples())
    tids = [f"t{j}" for j in range(int(rng.integers(1, 5)))]
    coverage = float(rng.choice([1.0, 0.7, 0.3]))
    rows = [(t, d, float(rng.normal())) for t in tids for d in designs if rng.random() < coverage]
    store = KnowledgeStore.build(space, [TaskRecord(t) for t in tids], rows)
    view_tasks = tids + (["ghost"] if rng.random() < 0.3 else [])
    view_tasks = [view_tasks[i] for i in rng.permutation(len(view_tasks))]
    scale = [0.0, 5e-324, 1e-300, 1.0][int(rng.integers(4))]
    weights = {
        t: float(rng.choice([0.0, 5e-324, 1e-300, rng.uniform()]) if rng.random() < 0.5 else scale)
        for t in view_tasks
    }
    flags = OodFlags(view_tasks)
    share = float(rng.choice([0.0, 0.5, 1.0]))
    regressors = {}
    for t in view_tasks:
        flags.state(t).flagged = bool(rng.random() < share)
        hyper = RegressorHyper(hidden_dim=hidden, epochs=12, seed=int(rng.integers(1000)))
        if t in store.tasks and len(store.derive_gains(t)):
            regressors[t] = pretrain_regressor(build_graph(store, t), hyper)[0]
        elif rng.random() < 0.7:  # no edges to train on: random output weights instead
            regressors[t] = GainRegressor(space, hyper)
            regressors[t].w_out = rng.normal(size=hidden)
    origin = designs[int(rng.integers(len(designs)))]
    candidates = space.neighbors(origin)
    evaluated = {origin: 0.0}
    evaluated.update((target, 0.0) for _, target in candidates if rng.random() < 0.2)
    state = RefinementState(
        current=origin,
        current_performance=0.0,
        best=origin,
        best_performance=0.0,
        evaluated=evaluated,
        evaluated_ranks={space.index_of(design) for design in evaluated},
        t=0,
        budget=1,
        view=SimilarityView(weights),
        transfers=TransferWindow(view_tasks, 2),
        flags=flags,
        buffer=ReplayBuffer(space),
    )
    graphs = {t: build_graph(store, t) for t in tids}
    return state, candidates, store, graphs, regressors


def test_array_weave_equals_reference_loop_bit_for_bit():
    rng = np.random.default_rng(2024)
    compared = chosen = predicted = 0
    for case in range(360):
        state, candidates, store, graphs, regressors = random_weave_case(rng, (1, 8, 32)[case % 3])
        weave = weave_scores(state, store, regressors)
        reference = reference_weave(state, candidates, graphs, regressors)
        assert list(weave.candidates) == [(s.modification, s.target) for s in reference]
        assert weave.scores.tobytes() == np.array([s.score for s in reference], dtype=float).tobytes()
        for i, expected in enumerate(reference):
            got = weave.woven(i)
            assert bits(got.score) == bits(expected.score)
            assert {t: (src, bits(v)) for t, (src, v) in got.contributions.items()} == {
                t: (src, bits(v)) for t, (src, v) in expected.contributions.items()
            }
            compared += 1
            predicted += any(src == "predicted" for src, _ in got.contributions.values())
        if reference:
            got, expected = select_modification(weave), reference_select(reference)
            assert (got.modification, got.target) == (expected.modification, expected.target)
            assert bits(got.score) == bits(expected.score)
            assert got.contributions.keys() == expected.contributions.keys()
            chosen += 1
    assert compared >= 1000 and chosen >= 200 and predicted >= 200


def reference_weave_for(monkeypatch):
    """Make ``RefinementEngine.step`` weave and select with the per-candidate loop."""

    def weave(state, store, regressors, current=None):
        graphs = {t: build_graph(store, t) for t in store.task_ids}
        candidates = store.space.neighbors(state.current if current is None else current)
        return reference_weave(state, candidates, graphs, regressors, current)

    monkeypatch.setattr(engine_module, "weave_scores", weave)
    monkeypatch.setattr(engine_module, "select_modification", reference_select)


def reference_case(kind):
    """A copy suite with OOD off, or an adversarial one with OOD on; both outrun the window."""
    space = make_space(4, 4, 3)
    if kind == "copy":
        spec = CorrelationSpec(mix=(0.0, 1.0, 0.0), unseen_noise=0.05)
        config = RunConfig(budget=40, seed=3, init_strategy="uniform", ood_adaptation=False)
    else:
        spec = CorrelationSpec(mix=(-0.25,) * 3, independent_strength=1.0, unseen_noise=0.02)
        planner = PlannerSettings(hidden_dim=8, pretrain_epochs=20, finetune_epochs=5)
        config = RunConfig(budget=40, seed=3, init_strategy="uniform", window=20, planner=planner)
    suite = generate_landscapes(space, 3, spec, seed=11)

    def records():
        report = RefinementEngine(suite.store, config).run(suite.unseen_oracle())
        return [json.dumps(r, sort_keys=True) for r in report.to_records()]

    return config, records


@pytest.mark.parametrize("kind", ["copy", "adversarial"])
def test_engine_run_equals_reference_weave_run(monkeypatch, kind):
    config, records = reference_case(kind)
    array_run = records()
    with monkeypatch.context() as patch:
        reference_weave_for(patch)
        assert records() == array_run
    sources = [src for r in array_run for src in json.loads(r)["sources"].values()]
    assert ("predicted" in sources) == config.ood_adaptation


@pytest.mark.parametrize("kind", ["copy", "adversarial"])
def test_engine_run_equals_reference_transfer_run(monkeypatch, kind):
    """The stacked transfer window gives the per-task deque-backed models' report."""
    config, records = reference_case(kind)
    array_run = records()
    with monkeypatch.context() as patch:
        for module in (similarity_module, engine_module):
            patch.setattr(module, "TransferWindow", ReferenceTransferWindow)
            patch.setattr(module, "update_transfer", reference_update_transfers)
        assert records() == array_run
    steps = sum(json.loads(r)["event"] == "step" for r in array_run)
    assert steps > config.resolved_window()


# ----------------------------------------------------------------------- steps


def test_step_consumes_exactly_one_oracle_call():
    store, perf = match_anti_store()
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    assert oracle.call_count == 1
    engine.step(state, oracle)
    assert oracle.call_count == 2
    assert state.t == 1
    assert len(state.log) == 2


def test_step_moves_to_selected_target_and_tracks_best():
    store, perf = match_anti_store(seed=3)
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    before = dict(state.evaluated)
    engine.step(state, oracle)
    new_designs = set(state.evaluated) - set(before)
    assert len(new_designs) == 1
    target = new_designs.pop()
    assert state.current == target  # always-move policy
    rec = state.log[-1]
    assert rec.event == "step"
    assert tuple(rec.to_choices) == target
    assert rec.actual_gain == pytest.approx(
        state.evaluated[target] - before[state.log[0].to_choices]
    )
    assert state.best_performance == max(state.evaluated.values())


def test_step_revert_on_regress_stays_put():
    store, perf = match_anti_store(seed=4)
    engine = RefinementEngine(store, quick_config(revert_on_regress=True))
    # constant oracle: every move has gain exactly 0, which is NOT a regress
    oracle = FunctionOracle(lambda d: 1.0)
    state = engine.new_state(oracle)
    start = state.current
    engine.step(state, oracle)
    assert state.current != start  # zero gain still moves

    engine2 = RefinementEngine(store, quick_config(revert_on_regress=True))
    drop = {}

    def falling(design):
        # initial design scores high, every later design lower
        return 1.0 if not drop else 0.5 - 0.01 * len(drop)

    oracle2 = FunctionOracle(lambda d: drop.setdefault(d, falling(d)))
    state2 = engine2.new_state(oracle2)
    start2 = state2.current
    engine2.step(state2, oracle2)
    assert state2.current == start2  # negative gain reverts
    assert state2.best == start2


def test_step_atomic_on_oracle_failure():
    store, perf = match_anti_store(seed=6)
    engine = RefinementEngine(store, quick_config())
    boom = RuntimeError("hardware failure")

    class FlakyOracle(EvaluationOracle):
        def __init__(self):
            super().__init__()
            self.fail = False

        def _evaluate(self, design):
            if self.fail:
                raise boom
            return perf(design)

    oracle = FlakyOracle()
    state = engine.new_state(oracle)
    snapshot = (
        state.current,
        state.t,
        dict(state.evaluated),
        dict(state.view.weights),
        len(state.buffer),
        len(state.log),
    )
    oracle.fail = True
    with pytest.raises(RuntimeError, match="hardware failure"):
        engine.step(state, oracle)
    assert (
        state.current,
        state.t,
        dict(state.evaluated),
        dict(state.view.weights),
        len(state.buffer),
        len(state.log),
    ) == snapshot
    oracle.fail = False
    engine.step(state, oracle)  # recovers cleanly
    assert state.t == 1


def test_budget_exhaustion_rejected():
    store, perf = match_anti_store()
    engine = RefinementEngine(store, quick_config(budget=0))
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    with pytest.raises(EngineError, match="budget"):
        engine.step(state, oracle)


def test_matching_benchmark_weight_grows():
    store, perf = match_anti_store(seed=7)
    engine = RefinementEngine(store, quick_config(budget=4))
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    assert state.view.weights["match"] == 0.5
    for _ in range(4):
        engine.step(state, oracle)
    assert state.view.weights["match"] > 0.9
    assert state.view.weights["match"] + state.view.weights["anti"] == pytest.approx(1.0)


def test_static_view_never_moves():
    store, perf = match_anti_store(seed=8)
    engine = RefinementEngine(store, quick_config(budget=4, dynamic_updates=False))
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    for _ in range(4):
        engine.step(state, oracle)
    assert state.view.weights == {"anti": 0.5, "match": 0.5}
    assert state.view.iteration == 4


def test_jump_relocates_when_neighbors_exhausted():
    space = make_space(2, 2)
    # single benchmark peaking at (0, 0)
    rows = [("b", (0, 0), 0.9), ("b", (0, 1), 0.5), ("b", (1, 0), 0.4), ("b", (1, 1), 0.3)]
    store = KnowledgeStore.build(space, [TaskRecord("b")], rows)
    truth = {(0, 0): 0.9, (0, 1): 0.7, (1, 0): 0.6, (1, 1): 1.5}
    engine = RefinementEngine(store, quick_config(budget=5, revert_on_regress=True))
    oracle = FunctionOracle(lambda d: truth[d])
    state = engine.new_state(oracle)
    assert state.current == (0, 0)
    engine.step(state, oracle)  # evaluates (0, 1): gain -0.2, reverts
    engine.step(state, oracle)  # evaluates (1, 0): gain -0.3, reverts
    assert state.current == (0, 0)
    assert not state.log[-1].jumped
    engine.step(state, oracle)  # all neighbors of (0, 0) done: jump to (0, 1)
    rec = state.log[-1]
    assert rec.jumped
    assert tuple(rec.from_choices) == (0, 1)  # best evaluated with open neighbors
    assert tuple(rec.to_choices) == (1, 1)
    assert state.best == (1, 1)
    with pytest.raises(SpaceExhausted):
        engine.step(state, oracle)


# ------------------------------------------------------------------------ runs


def test_run_with_zero_budget_reports_initial_only():
    store, perf = match_anti_store()
    engine = RefinementEngine(store, quick_config(budget=0))
    report = engine.run(FunctionOracle(perf))
    assert report.iterations == 0
    assert report.oracle_calls == 1
    assert len(report.records) == 1
    assert report.records[0].event == "initial"
    assert report.best_choices == report.initial_choices


def test_run_emits_one_record_per_iteration_plus_initial():
    store, perf = match_anti_store(seed=9)
    engine = RefinementEngine(store, quick_config(budget=5))
    report = engine.run(FunctionOracle(perf))
    assert report.iterations == 5
    assert len(report.records) == 6
    assert report.records[0].event == "initial"
    assert all(r.event == "step" for r in report.records[1:])
    assert report.oracle_calls == 6


def test_run_halts_when_space_exhausted():
    space = make_space(2, 2)
    rows = [("b", d, float(i)) for i, d in enumerate(space.iter_tuples())]
    store = KnowledgeStore.build(space, [TaskRecord("b")], rows)
    engine = RefinementEngine(store, quick_config(budget=50))
    oracle = FunctionOracle(lambda d: float(sum(d)))
    report = engine.run(oracle)
    assert report.oracle_calls == 4  # every design exactly once
    assert report.iterations == 3
    assert report.best_performance == 2.0


def test_run_never_reevaluates_designs():
    store, perf = match_anti_store(seed=10)
    engine = RefinementEngine(store, quick_config(budget=8))
    oracle = FunctionOracle(perf)
    report = engine.run(oracle)
    assert report.oracle_calls == len(oracle.evaluations) == 9
    best_so_far = -math.inf
    for rec in report.records:
        best_so_far = max(best_so_far, rec.performance)
        assert rec.best_performance == pytest.approx(best_so_far)


def test_run_finds_optimum_with_perfect_benchmark():
    store, perf = match_anti_store(seed=11)
    sub = store.subset(["match"])
    engine = RefinementEngine(sub, quick_config(budget=8))
    oracle = FunctionOracle(perf)
    report = engine.run(oracle)
    space = sub.space
    truth_best = max(space.iter_tuples(), key=perf)
    assert report.best_choices == truth_best
    assert report.best_performance == pytest.approx(perf(truth_best))


# -------------------------------------------------------------------- configs


def test_config_window_defaults():
    assert RunConfig(ood_adaptation=False).resolved_window() == DEFAULT_WINDOW == 30
    assert RunConfig(ood_adaptation=True).resolved_window() == DEFAULT_WINDOW_OOD == 40
    assert RunConfig(window=12).resolved_window() == 12


def test_config_validation():
    with pytest.raises(EngineError):
        RunConfig(budget=-1)
    with pytest.raises(EngineError):
        RunConfig(window=1)
    with pytest.raises(EngineError):
        RunConfig(init_strategy="psychic")
    with pytest.raises(EngineError):
        RunConfig(init_strategy="explicit")
    with pytest.raises(EngineError):
        RunConfig(persist_steps=0)
    with pytest.raises(EngineError):
        RunConfig(noise_floor=0.0)
    for weights in ({"a": -1.0}, {"a": math.nan}, {"a": "x"}, 3):
        with pytest.raises(EngineError, match="init_weights"):
            RunConfig(init_weights=weights)
    with pytest.raises(PlannerError, match="epochs"):
        RunConfig(planner=PlannerSettings(finetune_epochs=0))
    for name in ("ood_adaptation", "dynamic_updates", "revert_on_regress"):
        for value in ("no", 0, 1, None):
            with pytest.raises(EngineError, match=name):
                RunConfig(**{name: value})
    for value in ("x", 0, 2.0, True, None):
        with pytest.raises(EngineError, match="buffer_capacity"):
            PlannerSettings(buffer_capacity=value)
    for value in ("x", 0, 2.0, False):
        with pytest.raises(EngineError, match="max_samples"):
            PlannerSettings(max_samples=value)


def test_config_mapping_round_trip(tmp_path):
    configs = [
        RunConfig(budget=7, seed=3, window=11, init_strategy="uniform"),
        RunConfig(init_strategy="explicit", init_weights={"a": 0.7, "b": 0.3}),
        RunConfig(planner=PlannerSettings(hidden_dim=8, max_samples=None, replay_mix=0.25)),
    ]
    for config in configs:
        assert RunConfig.from_mapping(asdict(config)) == config
    # summary.json carries the config: empty weights are written as null, and
    # explicit weights read back into an equal config
    store, perf = match_anti_store(seed=4)
    for weights in ({}, {"anti": 0.25, "match": 0.75}):
        strategy = "explicit" if weights else "uniform"
        config = quick_config(budget=2, init_strategy=strategy, init_weights=weights)
        paths = write_report(RefinementEngine(store, config).run(FunctionOracle(perf)), tmp_path)
        text = paths["summary"].read_text()
        summary = json.loads(text)
        if weights:
            assert summary["config"]["init_weights"] == weights
            assert RunConfig.from_mapping(summary["config"]) == config
        else:
            assert '"init_weights":null' in text


def test_config_rejects_unknown_keys():
    with pytest.raises(EngineError, match="unknown config keys"):
        RunConfig.from_mapping({"budget": 5, "verbosity": 3})
    with pytest.raises(EngineError, match="unknown planner config keys"):
        RunConfig.from_mapping({"planner": {"layers": 4}})


def test_engine_kendall_strategy_needs_stats():
    store, _ = match_anti_store()
    engine = RefinementEngine(store, RunConfig(init_strategy="kendall"))
    with pytest.raises(EngineError, match="statistics"):
        engine.new_state(FunctionOracle(lambda d: 0.0))


def test_engine_explicit_strategy_checks_task_set():
    store, _ = match_anti_store()
    config = quick_config(init_strategy="explicit", init_weights={"match": 1.0})
    engine = RefinementEngine(store, config)
    with pytest.raises(EngineError, match="mismatch"):
        engine.new_state(FunctionOracle(lambda d: 0.0))


# -------------------------------------------------------------------- reports


def test_write_report_files(tmp_path):
    store, perf = match_anti_store(seed=12)
    engine = RefinementEngine(store, quick_config(budget=3))
    report = engine.run(FunctionOracle(perf))
    paths = write_report(report, tmp_path)
    lines = paths["report"].read_text().strip().splitlines()
    assert len(lines) == 4  # initial + 3 steps
    first = json.loads(lines[0])
    assert first["event"] == "initial"
    assert first["t"] == 0
    step = json.loads(lines[1])
    assert step["event"] == "step"
    assert set(step) >= {
        "t", "from", "to", "dimension", "from_choice", "to_choice",
        "woven_gain", "actual_gain", "performance", "best_performance",
        "weights", "flagged", "sources", "jumped",
    }
    summary = json.loads(paths["summary"].read_text())
    assert summary["best"]["performance"] == report.best_performance
    assert summary["oracle_calls"] == report.oracle_calls
    csv_lines = paths["trajectory"].read_text().strip().splitlines()
    assert csv_lines[0] == "iteration,series,value"
    series = {line.split(",")[1] for line in csv_lines[1:]}
    assert series == {
        "performance", "best_performance", "woven_gain", "actual_gain",
        "weight:anti", "weight:match",
    }


def test_seeded_runs_are_byte_identical(tmp_path):
    store, perf = match_anti_store(seed=13)

    def run_once(out):
        engine = RefinementEngine(store, quick_config(budget=5, seed=42))
        report = engine.run(FunctionOracle(perf))
        return write_report(report, out)

    p1 = run_once(tmp_path / "one")
    p2 = run_once(tmp_path / "two")
    for key in ("report", "summary", "trajectory"):
        assert p1[key].read_bytes() == p2[key].read_bytes()


def test_training_never_writes_into_the_callers_arrays(monkeypatch):
    """Surrogate rounds read cached benchmark edges, replay rows and stacked moves, never write them."""
    from mdesign import planner

    store, perf = match_anti_store(seed=2)
    engine = RefinementEngine(store, quick_config())
    oracle = FunctionOracle(perf)
    state = engine.new_state(oracle)
    for tid in store.task_ids:  # both flagged: each step fine-tunes two stacked surrogates
        state.flags.state(tid).flagged = True
        state.flags.state(tid).low_streak = 5
    state.buffer.append((0, 0), (1, 0), 0.1)

    def snapshot():
        edges = [engine._benchmark_edges(tid) for tid in store.task_ids]
        rows = [row for _, fwd, bwd in state.buffer._entries for row in (fwd, bwd)]
        return [a.tobytes() for e in edges for a in (e.fwd, e.bwd, e.target)] + [
            r.tobytes() for r in rows
        ]

    kernel = planner._stacked_loss_grads
    kernel_calls = []

    def checked_kernel(params, hidden, moves, target, grads=None):
        before = [a.tobytes() for a in (params, moves, target)]
        out = kernel(params, hidden, moves, target, grads)
        kernel_calls.append(before == [a.tobytes() for a in (params, moves, target)])
        return out

    monkeypatch.setattr(planner, "_stacked_loss_grads", checked_kernel)
    for _ in range(2):
        before = snapshot()
        engine.step(state, oracle)
        assert snapshot()[: len(before)] == before
    assert set(engine.regressors) == set(store.task_ids)
    assert len(kernel_calls) > 2 * quick_config().planner.finetune_epochs
    assert all(kernel_calls)
