"""Synthetic landscapes, replay oracles, baselines, and consistency statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_designs, coverage_store, make_space, pretrain_on_graph
from mdesign import engine as engine_module
from mdesign.engine import FunctionOracle, PlannerSettings, RefinementEngine, RunConfig
from mdesign.graph import build_graph, edge_samples
from mdesign.harness import (
    BASELINE_KINDS,
    SHAPIRO_MAX_SAMPLES,
    CorrelationSpec,
    CoverageError,
    HarnessError,
    ReplayOracle,
    TaskLandscape,
    consistency_stats,
    evaluations_to_reach,
    generate_landscapes,
    metrics_from_performances,
    prediction_r2,
    replay_oracle,
    run_baseline,
    shared_edge_gains,
)
from mdesign.harness import stat_names_for
from mdesign.planner import GainRegressor, RegressorHyper, predict_gain
from mdesign.space import DesignSpaceError
from mdesign.store import KnowledgeStore, StoreError, TaskRecord
from oracles import reference_performance, reference_potential, reference_shared_edge_gains


def small_suite(mix=(1.0,), seed=0, **spec_kw):
    space = make_space(3, 3)
    spec = CorrelationSpec(mix=mix, utility_scale=0.5, **spec_kw)
    return generate_landscapes(space, len(mix), spec, seed=seed)


# ------------------------------------------------------------------ landscapes


def test_correlation_spec_validation():
    with pytest.raises(HarnessError):
        CorrelationSpec(mix=())
    with pytest.raises(HarnessError):
        CorrelationSpec(mix=(1.0,), utility_scale=0.0)
    with pytest.raises(HarnessError):
        CorrelationSpec(mix=(1.0,), benchmark_noise=-0.1)
    with pytest.raises(HarnessError):
        CorrelationSpec(mix=(1.0,), unseen_noise=float("inf"))
    for mix, scale in ((("1",), 1.0), ((True,), 1.0), (1.0, 1.0), ((1.0,), True), ((1.0,), "1")):
        with pytest.raises(HarnessError):
            CorrelationSpec(mix=mix, utility_scale=scale)
    assert CorrelationSpec(mix=[1, 0]).mix == (1.0, 0.0)  # a JSON list of ints, as synth reads it


def test_landscape_validation():
    space = make_space(2, 2)
    with pytest.raises(HarnessError):
        TaskLandscape(space, [np.zeros(2)])  # one vector short
    with pytest.raises(HarnessError):
        TaskLandscape(space, [np.zeros(2), np.zeros(3)])
    with pytest.raises(HarnessError):
        TaskLandscape(space, [np.zeros(2), np.zeros(2)], noise=np.zeros(3))


def test_landscape_performance_decomposition():
    space = make_space(2, 2)
    utilities = [np.array([0.1, 0.2]), np.array([0.0, 0.3])]
    interactions = {(0, 1): np.array([[0.0, 0.05], [0.0, 0.0]])}
    noise = np.array([0.0, 0.01, 0.0, -0.01])
    plain = TaskLandscape(space, utilities)
    assert plain.performance((0, 1)) == pytest.approx(0.4)
    assert plain.performance((1, 0)) == pytest.approx(0.2)
    coupled = TaskLandscape(space, utilities, interactions, noise)
    assert coupled.potential((0, 1)) == pytest.approx(0.1 + 0.3 + 0.05)
    assert coupled.performance((0, 1)) == pytest.approx(0.45 + 0.01)


def test_stat_names_schema():
    assert stat_names_for(make_space(2, 2)) == (
        "util_dim0_c0",
        "util_dim0_c1",
        "util_dim1_c0",
        "util_dim1_c1",
    )


def test_generate_counts_and_stats():
    suite = small_suite(mix=(0.7, 0.3), seed=4)
    store = suite.store
    assert store.task_ids == ("bench00", "bench01")
    assert store.arch_count == 9
    for tid in store.task_ids:
        assert len(store.performances(tid)) == 9
    assert store.stat_names == stat_names_for(suite.space)
    assert store.stats_vector("bench00") == suite.benchmarks[0].utilities_flat()
    assert suite.unseen_stats == dict(
        zip(store.stat_names, suite.unseen.utilities_flat())
    )


def test_identity_mix_copies_benchmark():
    suite = small_suite(mix=(1.0,), seed=7)
    bench = suite.benchmarks[0]
    for design in all_designs(suite.space):
        assert suite.unseen.performance(design) == bench.performance(design)
    best = max(all_designs(suite.space), key=bench.performance)
    assert suite.optimum_design == best
    assert suite.optimum_performance == bench.performance(best)


def test_double_mix_doubles_every_gain():
    suite = small_suite(mix=(2.0,), seed=8)
    bench = suite.benchmarks[0]
    space = suite.space
    for design in all_designs(space):
        for _, nbr in space.neighbors(design):
            unseen_gain = suite.unseen.performance(nbr) - suite.unseen.performance(design)
            bench_gain = bench.performance(nbr) - bench.performance(design)
            assert unseen_gain == pytest.approx(2.0 * bench_gain, rel=1e-12, abs=1e-15)


def test_mix_weights_show_up_in_consistency():
    r2_strong, r2_weak = [], []
    for seed in (0, 1, 2):
        suite = small_suite(mix=(0.85, 0.15), seed=seed, independent_strength=0.05)
        full = suite.full_store()
        u0, b0 = shared_edge_gains(full, "unseen", "bench00")
        u1, b1 = shared_edge_gains(full, "unseen", "bench01")
        r2_strong.append(consistency_stats(u0, b0).r_squared)
        r2_weak.append(consistency_stats(u1, b1).r_squared)
    assert np.mean(r2_strong) > np.mean(r2_weak) + 0.2
    assert np.mean(r2_strong) > 0.6


def test_interactions_respect_mix():
    suite = small_suite(mix=(3.0,), seed=9, interaction_strength=0.2)
    bench = suite.benchmarks[0]
    assert suite.unseen.interactions.keys() == bench.interactions.keys()
    for key, matrix in suite.unseen.interactions.items():
        assert np.allclose(matrix, 3.0 * bench.interactions[key], rtol=1e-12)


def test_generate_validation():
    space = make_space(3, 3)
    with pytest.raises(HarnessError, match="mix has"):
        generate_landscapes(space, 2, CorrelationSpec(mix=(1.0,)), seed=0)


@pytest.mark.parametrize("n_benchmarks", [True, 2.0, "2", None, 0])
def test_generate_rejects_a_benchmark_count_that_is_no_count(n_benchmarks):
    spec = CorrelationSpec(mix=(1.0,))  # one coefficient, so True would build one benchmark
    with pytest.raises(HarnessError) as info:
        generate_landscapes(make_space(3, 3), n_benchmarks, spec, seed=0)
    assert str(info.value) == f"n_benchmarks must be an integer >= 1, got {n_benchmarks!r}"


@pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, True, "0", None])
def test_generate_rejects_a_seed_that_is_no_count(seed):
    spec = CorrelationSpec(mix=(0.5, 0.5))
    with pytest.raises(HarnessError) as info:
        generate_landscapes(make_space(3, 3), 2, spec, seed)
    assert str(info.value) == f"seed must be an integer >= 0, got {seed!r}"


def test_generate_rejects_huge_spaces():
    big = make_space(*([2] * 20))  # 2^20 = 1,048,576 designs
    assert big.size > 1_000_000
    with pytest.raises(HarnessError, match="exhaustive"):
        generate_landscapes(big, 1, CorrelationSpec(mix=(1.0,)), seed=0)


def test_generate_is_deterministic():
    a = small_suite(mix=(0.5, 0.5), seed=3, unseen_noise=0.1)
    b = small_suite(mix=(0.5, 0.5), seed=3, unseen_noise=0.1)
    assert a.store == b.store
    assert a.optimum_design == b.optimum_design
    assert a.optimum_performance == b.optimum_performance
    for design in all_designs(a.space):
        assert a.unseen.performance(design) == b.unseen.performance(design)


def test_full_store_appends_unseen_task():
    suite = small_suite(mix=(1.0,), seed=5)
    full = suite.full_store()
    assert full.task_ids == ("bench00", "unseen")
    assert len(full.performances("unseen")) == suite.space.size
    for design in all_designs(suite.space):
        assert full.performance_of("unseen", design) == suite.unseen.performance(design)
    with pytest.raises(HarnessError, match="already used"):
        suite.full_store("bench00")


# --------------------------------------------------------------------- oracles


def test_replay_oracle_reads_recorded_values():
    suite = small_suite(mix=(1.0,), seed=6)
    full = suite.full_store()
    oracle = replay_oracle(full, "unseen")
    design = (1, 2)
    assert oracle.evaluate(design) == full.performance_of("unseen", design)
    assert oracle.call_count == 1
    with pytest.raises(HarnessError, match="unknown task"):
        ReplayOracle(full, "nope")


def test_replay_oracle_flags_missing_coverage():
    space = make_space(2, 2)
    rows = [("t", (0, 0), 0.5)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    oracle = replay_oracle(store, "t")
    with pytest.raises(CoverageError, match="no recorded performance"):
        oracle.evaluate((1, 1))
    assert store.performance_of("t", (1, 1)) is None


@pytest.mark.parametrize("design", [(True, 0), (1.0, 0), (9, 9)], ids=repr)
def test_both_oracles_reject_a_tuple_that_is_no_design(design):
    """A tuple equal to a design but of other types, or out of range, is no point of the space."""
    suite = small_suite(mix=(1.0,), seed=6)
    full = suite.full_store()
    for lookup in (
        suite.unseen_oracle().evaluate,
        replay_oracle(full, "unseen").evaluate,
        partial(full.performance_of, "unseen"),
        full.arch_id_of,
    ):
        with pytest.raises(DesignSpaceError):
            lookup(design)


@pytest.mark.parametrize("design", [(True, 0), (1.0, 0), (1, False)], ids=repr)
def test_a_memo_hit_is_no_looser_than_a_miss(design):
    """Once (1, 0) is evaluated, a look-alike that equals it is still refused."""
    suite = small_suite(mix=(1.0,), seed=6)
    for oracle in (suite.unseen_oracle(), replay_oracle(suite.full_store(), "unseen")):
        value = oracle.evaluate((1, 0))
        with pytest.raises(DesignSpaceError):
            oracle.evaluate(design)
        assert oracle.call_count == 1
        assert oracle.evaluate((1, 0)) == value
        assert oracle.call_count == 1


def test_a_look_alike_keeps_its_designs_memo():
    """An oracle that checks no design evaluates a look-alike, but keeps the design's value."""
    calls = []

    def count(design):
        calls.append(design)
        return float(len(calls))

    oracle = FunctionOracle(count)
    assert oracle.evaluate((1, 0)) == 1.0
    assert oracle.evaluate((1.0, 0)) == 2.0
    assert oracle.evaluate((1, 0)) == 1.0
    assert calls == [(1, 0), (1.0, 0)]
    assert oracle.call_count == 1


def test_landscape_oracle_memoizes():
    suite = small_suite(mix=(1.0,), seed=2)
    oracle = suite.unseen_oracle()
    v1 = oracle.evaluate((0, 0))
    v2 = oracle.evaluate((0, 0))
    assert v1 == v2
    assert oracle.call_count == 1


# --------------------------------------------------------------------- metrics


def test_metrics_best_trajectory_and_default_target():
    m = metrics_from_performances([1.0, 3.0, 2.0, 5.0], optimum=5.0)
    assert m.best_trajectory == [1.0, 3.0, 3.0, 5.0]
    assert m.regret_trajectory == [4.0, 2.0, 2.0, 0.0]
    assert m.final_regret == 0.0
    # halfway default: best after evaluation 2 is 3.0, first reached at eval 2
    assert m.target == 3.0
    assert m.evaluations_to_target == 2


def test_metrics_explicit_target_can_be_unreached():
    m = metrics_from_performances([1.0, 2.0], target=10.0)
    assert m.evaluations_to_target == math.inf
    assert m.regret_trajectory is None
    assert m.final_regret is None


def test_metrics_require_data():
    with pytest.raises(HarnessError):
        metrics_from_performances([])


def test_evaluations_to_reach_levels():
    m = metrics_from_performances([1.0, 3.0, 2.0, 5.0])
    assert evaluations_to_reach(m, 1.0) == 1
    assert evaluations_to_reach(m, 3.0) == 2
    assert evaluations_to_reach(m, 5.0) == 4
    assert evaluations_to_reach(m, 5.5) == math.inf


def test_regret_is_nonnegative_and_nonincreasing():
    rng = np.random.default_rng(0)
    perfs = list(rng.normal(size=30))
    m = metrics_from_performances(perfs, optimum=max(perfs))
    regret = m.regret_trajectory
    assert all(r >= 0 for r in regret)
    assert all(a >= b for a, b in zip(regret, regret[1:]))


# ------------------------------------------------------------------- baselines


def baseline_config(**kw):
    defaults = dict(
        budget=8,
        init_strategy="uniform",
        planner=PlannerSettings(hidden_dim=8, pretrain_epochs=20, finetune_epochs=5),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_unknown_baseline_kind_rejected():
    suite = small_suite(mix=(1.0,), seed=1)
    with pytest.raises(HarnessError, match="unknown baseline"):
        run_baseline("quantum", baseline_config(), suite.store, suite.unseen_oracle())


def test_random_baseline_exhausts_space_and_finds_optimum():
    suite = small_suite(mix=(1.0,), seed=10)
    config = baseline_config(budget=suite.space.size - 1, seed=3)
    oracle = suite.unseen_oracle()
    metrics = run_baseline(
        "random", config, suite.store, oracle, optimum=suite.optimum_performance
    )
    assert oracle.call_count == suite.space.size
    assert metrics.final_regret == pytest.approx(0.0, abs=1e-15)
    assert len(metrics.best_trajectory) == suite.space.size


def test_random_baseline_is_seed_deterministic():
    suite = small_suite(mix=(1.0,), seed=11)
    runs = []
    for _ in range(2):
        oracle = suite.unseen_oracle()
        metrics = run_baseline("random", baseline_config(seed=7), suite.store, oracle)
        runs.append(metrics.best_trajectory)
    assert runs[0] == runs[1]


def test_baselines_respect_budget():
    suite = small_suite(mix=(1.0,), seed=12)
    for kind in BASELINE_KINDS:
        oracle = suite.unseen_oracle()
        metrics = run_baseline(
            kind,
            baseline_config(budget=4),
            suite.store,
            oracle,
            target_stats=suite.unseen_stats,
        )
        assert oracle.call_count <= 5
        assert len(metrics.best_trajectory) == oracle.call_count


def test_greedy_baseline_stops_at_local_optimum():
    suite = small_suite(mix=(1.0,), seed=13)
    oracle = suite.unseen_oracle()
    metrics = run_baseline(
        "greedy_local",
        baseline_config(budget=suite.space.size),
        suite.store,
        oracle,
        optimum=suite.optimum_performance,
        start=suite.optimum_design,
    )
    # from the optimum: the start plus its 4 neighbors, then no improvement
    assert oracle.call_count == 5
    assert metrics.final_regret == pytest.approx(0.0, abs=1e-15)


def test_greedy_baseline_improves_monotonically():
    suite = small_suite(mix=(1.0,), seed=14)
    oracle = suite.unseen_oracle()
    metrics = run_baseline("greedy_local", baseline_config(budget=8, seed=5), suite.store, oracle)
    best = metrics.best_trajectory
    assert all(a <= b for a, b in zip(best, best[1:]))


def test_static_weave_keeps_weights_frozen():
    # an anti-correlated benchmark, so frozen and updated weights pick different moves
    suite = small_suite(mix=(1.0, -1.0), seed=15)
    oracle = suite.unseen_oracle()
    metrics = run_baseline(
        "static_weave",
        baseline_config(budget=5),
        suite.store,
        oracle,
        optimum=suite.optimum_performance,
        target_stats=suite.unseen_stats,
    )
    assert len(metrics.best_trajectory) == 6
    # the baseline is the engine's own loop with posterior updates switched off
    config = replace(baseline_config(budget=5), dynamic_updates=False)
    report = RefinementEngine(suite.store, config, suite.unseen_stats).run(suite.unseen_oracle())
    expected = metrics_from_performances(
        [r.performance for r in report.records], optimum=suite.optimum_performance
    )
    assert metrics.best_trajectory == expected.best_trajectory
    assert metrics.regret_trajectory == expected.regret_trajectory
    assert (metrics.target, metrics.evaluations_to_target) == (
        expected.target,
        expected.evaluations_to_target,
    )


def test_static_weave_makes_no_transfer_fit(monkeypatch):
    """Only the posterior reads the transfer fits, so frozen weights skip them."""
    fits = []
    update_transfer = engine_module.update_transfer

    def counting(*args):
        fits.append(args)
        return update_transfer(*args)

    monkeypatch.setattr(engine_module, "update_transfer", counting)
    suite = small_suite(mix=(1.0, -1.0), seed=15)
    run_baseline("static_weave", baseline_config(budget=5), suite.store, suite.unseen_oracle())
    assert fits == []
    RefinementEngine(suite.store, baseline_config(budget=5)).run(suite.unseen_oracle())
    assert len(fits) == 5  # dynamic weights fit once a step


# ------------------------------------------------------------------ statistics


def test_consistency_perfect_proportionality():
    b = np.array([0.1, -0.2, 0.3, 0.05, -0.15])
    stats = consistency_stats(2.0 * b, b)
    assert stats.r_squared == pytest.approx(1.0, rel=1e-12)
    assert stats.normality_p == 1.0  # residuals all exactly zero
    assert stats.kendall == pytest.approx(1.0)


def test_consistency_perfect_anticorrelation_still_fits():
    b = np.array([0.1, -0.2, 0.3, 0.05, -0.15])
    stats = consistency_stats(-1.5 * b, b)
    assert stats.r_squared == pytest.approx(1.0, rel=1e-12)
    assert stats.kendall == pytest.approx(-1.0)


def test_consistency_unrelated_vectors_score_low():
    rng = np.random.default_rng(21)
    u = rng.normal(size=200)
    b = rng.normal(size=200)
    stats = consistency_stats(u, b)
    assert stats.r_squared < 0.1
    assert abs(stats.kendall) < 0.15


def test_consistency_tests_normality_on_5000_evenly_spaced_residuals():
    """20,000 residuals: Shapiro-Wilk runs on 5,000 of them, so scipy has nothing to warn of."""
    rng = np.random.default_rng(40)
    u = rng.standard_t(5, size=20_000)
    u[0] = 0.0
    b = np.zeros(20_000)
    b[0] = 1.0  # orthogonal to u: the slope is exactly 0, so the residuals are u
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = consistency_stats(u, b)
        sample = u[np.linspace(0, u.size - 1, 5_000, dtype=np.intp)]
        assert len(set(sample.tolist())) == 5_000
        assert got.normality_p == scipy.stats.shapiro(sample).pvalue
    assert SHAPIRO_MAX_SAMPLES == 5_000


def test_consistency_gaussian_residuals_look_normal():
    # majority vote across seeds: truly normal residuals rarely get rejected
    accepted = 0
    for seed in range(22, 32):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=120)
        u = 0.8 * b + rng.normal(0.0, 0.1, size=120)
        if consistency_stats(u, b).normality_p > 0.05:
            accepted += 1
    assert accepted >= 7


def test_consistency_heavy_tails_are_rejected():
    rng = np.random.default_rng(23)
    b = rng.normal(size=200)
    u = 0.8 * b + rng.standard_cauchy(200) * 0.1
    stats = consistency_stats(u, b)
    assert stats.normality_p < 0.01


def test_consistency_validation():
    with pytest.raises(HarnessError, match="3 shared"):
        consistency_stats([0.1, 0.2], [0.1, 0.2])
    with pytest.raises(HarnessError, match="aligned"):
        consistency_stats([0.1, 0.2, 0.3], [0.1, 0.2])
    with pytest.raises(HarnessError, match="finite"):
        consistency_stats([0.1, float("nan"), 0.3], [0.1, 0.2, 0.3])


def test_shared_edges_full_coverage():
    suite = small_suite(mix=(1.0,), seed=16)
    full = suite.full_store()
    u, b = shared_edge_gains(full, "unseen", "bench00")
    graph = build_graph(full, "unseen")
    assert len(u) == graph.edge_count
    assert np.array_equal(u, b)  # identity mix: gains agree edge for edge


def test_shared_edges_partial_overlap():
    space = make_space(3)
    rows = [
        ("a", (0,), 0.1), ("a", (1,), 0.2), ("a", (2,), 0.4),
        ("b", (0,), 0.3), ("b", (1,), 0.1),
    ]
    store = KnowledgeStore.build(space, [TaskRecord("a"), TaskRecord("b")], rows)
    u, b = shared_edge_gains(store, "a", "b")
    assert u.tolist() == [pytest.approx(0.1)]  # only the (0) -> (1) edge is shared
    assert b.tolist() == [pytest.approx(-0.2)]


def test_prediction_r2_bounds():
    suite = small_suite(mix=(1.0,), seed=17)
    graph = build_graph(suite.store, "bench00")
    samples = edge_samples(graph)
    untrained = GainRegressor(suite.space, RegressorHyper(hidden_dim=8))
    assert prediction_r2(untrained, samples) == 0.0  # zero predictor baseline
    trained, _ = pretrain_on_graph(graph, RegressorHyper(hidden_dim=32, seed=0))
    assert prediction_r2(trained, samples) > 0.9
    with pytest.raises(HarnessError):
        prediction_r2(untrained, [])


# ------------------------------------------------------- array paths vs loops

COVERAGE = dict(
    sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    coverage=st.lists(st.sampled_from(["none", "one", "part", "all"]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    pairs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
    noisy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_landscape_values_equal_the_per_design_sum(sizes, pairs, noisy, seed):
    """Interactions in any dict order, reversed or on one dimension, and noise: same bits."""
    space = make_space(*sizes)
    rng = np.random.default_rng(seed)
    utilities = [rng.normal(size=n) for n in sizes]
    interactions = {}
    for d1, d2 in pairs:
        d1, d2 = d1 % len(sizes), d2 % len(sizes)
        interactions[(d1, d2)] = rng.normal(size=(sizes[d1], sizes[d2]))
    noise = rng.normal(size=space.size) if noisy else None
    landscape = TaskLandscape(space, utilities, interactions, noise)
    designs = all_designs(space)
    potentials = np.array([reference_potential(landscape, d) for d in designs])
    performances = np.array([reference_performance(landscape, d) for d in designs])
    assert landscape.potentials.tobytes() == potentials.tobytes()
    assert landscape.performances.tobytes() == performances.tobytes()
    assert [landscape.performance(d) for d in designs] == performances.tolist()
    assert [landscape.potential(d) for d in designs] == potentials.tolist()


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    n_benchmarks=st.integers(1, 3),
    interaction=st.sampled_from([0.0, 0.3]),
    noise=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32 - 1),
)
def test_generated_stores_and_optimum_equal_the_row_path(
    sizes, n_benchmarks, interaction, noise, seed
):
    """Synthetic stores equal ``build`` over per-design rows; the optimum is the first maximum."""
    space = make_space(*sizes)
    spec = CorrelationSpec(
        mix=(0.6, -0.3, 0.2)[:n_benchmarks],
        interaction_strength=interaction,
        benchmark_noise=noise,
        unseen_noise=noise,
        independent_strength=0.5,
    )
    suite = generate_landscapes(space, n_benchmarks, spec, seed)
    designs = all_designs(space)
    names = stat_names_for(space)
    landscapes = {f"bench{k:02d}": b for k, b in enumerate(suite.benchmarks)}
    rows = [(tid, d, reference_performance(b, d)) for tid, b in landscapes.items() for d in designs]
    tasks = [TaskRecord(tid, b.utilities_flat()) for tid, b in landscapes.items()]
    assert suite.store == KnowledgeStore.build(space, tasks, rows, names)
    rows += [("unseen", d, reference_performance(suite.unseen, d)) for d in designs]
    tasks.append(TaskRecord("unseen", suite.unseen.utilities_flat()))
    assert suite.full_store() == KnowledgeStore.build(space, tasks, rows, names)
    best_design, best_value = None, -math.inf
    for design in designs:  # a strict > scan keeps the first maximum
        value = reference_performance(suite.unseen, design)
        if value > best_value:
            best_design, best_value = design, value
    assert (suite.optimum_design, suite.optimum_performance) == (best_design, best_value)


def test_optimum_is_the_first_maximum():
    """A zero mix ties every design of the unseen task; the first in rank order wins."""
    suite = generate_landscapes(make_space(3, 3), 1, CorrelationSpec(mix=(0.0,)), seed=0)
    assert (suite.optimum_design, suite.optimum_performance) == ((0, 0), 0.0)


@settings(max_examples=100, deadline=None)
@given(**COVERAGE)
def test_shared_edge_gains_equal_the_dict_join(sizes, coverage, seed):
    """Partial coverage, and tasks with no or one measured design, join as the dicts do."""
    store = coverage_store(sizes, coverage, seed)
    for task_a in store.task_ids:
        for task_b in store.task_ids:
            got = shared_edge_gains(store, task_a, task_b)
            expected = reference_shared_edge_gains(store, task_a, task_b)
            for g, e in zip(got, expected):
                assert (g.dtype, g.tobytes()) == (e.dtype, e.tobytes())
    with pytest.raises(StoreError, match="unknown task"):
        shared_edge_gains(store, store.task_ids[0], "nope")


@settings(max_examples=50, deadline=None)
@given(**COVERAGE)
def test_prediction_r2_equals_per_sample_predictions(sizes, coverage, seed):
    store = coverage_store(sizes, coverage, seed)
    reg = GainRegressor(store.space, RegressorHyper(hidden_dim=8, seed=seed % 1000))
    reg.params()["w_out"][...] = np.random.default_rng(seed).normal(size=8)
    for tid in store.task_ids:
        samples = edge_samples(build_graph(store, tid))
        if not samples:
            continue
        true = np.array([s.gain for s in samples], dtype=float)
        preds = np.array([predict_gain(reg, s.from_design, s.to_design) for s in samples])
        ss_tot = float(np.dot(true, true))
        ss_res = float(np.dot(true - preds, true - preds))
        expected = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
        assert prediction_r2(reg, samples) == expected
