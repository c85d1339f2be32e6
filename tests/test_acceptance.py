"""Acceptance suite: ten end-to-end guarantees the library must uphold.

One test per criterion; run ``pytest tests/test_acceptance.py -v`` to get a
pass/fail line for each.  Every threshold (tolerance, instance count, runtime
ceiling) is fixed here so results are comparable across machines.  All runs
are seeded, so outcomes are reproducible, not flaky.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_designs, loss_grads, make_space, move_gain, partial_random_store
from mdesign.cli import cli_run
from mdesign.engine import (
    PlannerSettings,
    RefinementEngine,
    RefinementState,
    RunConfig,
    weave_scores,
)
from mdesign.graph import build_graph, edge_samples
from mdesign.harness import (
    CorrelationSpec,
    evaluations_to_reach,
    generate_landscapes,
    prediction_r2,
    run_baseline,
)
from mdesign.planner import (
    GainRegressor,
    OodFlags,
    RegressorHyper,
    edge_features,
    wasserstein_1d,
)
from mdesign.similarity import (
    SimilarityView,
    TransferWindow,
    bayes_update,
    gaussian_likelihood,
    kendall_tau,
    update_transfer,
)
from mdesign.store import KnowledgeStore, TaskRecord
from oracles import (
    brute_gaussian,
    brute_kendall_tau,
    brute_posterior,
    brute_slope_and_variance,
    brute_wasserstein,
    brute_weave,
    rel_err,
)


def announce(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:02d}] PASS — {detail}")


# --------------------------------------------------------------- criterion 1


def test_criterion_01_equations_match_bruteforce_oracles():
    """Core formulas agree with independently coded references to 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(1000):
        observed, retrieved = (float(v) for v in rng.normal(0.0, 2.0, size=2))
        slope = float(rng.uniform(-3.0, 3.0))
        variance = float(10.0 ** rng.uniform(-6.0, 2.0))
        ours = gaussian_likelihood(observed, retrieved, slope, variance)
        assert rel_err(ours, brute_gaussian(observed, retrieved, slope, variance)) <= 1e-10

    for i in range(1000):
        n = int(rng.integers(3, 41))
        if i % 2:
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
        else:
            x = rng.normal(size=n)
            y = rng.normal(size=n)
        assert rel_err(kendall_tau(x, y), brute_kendall_tau(list(x), list(y))) <= 1e-10

    for _ in range(1000):
        window = int(rng.integers(2, 13))
        model = TransferWindow(["t"], window)
        pairs = [
            (float(rng.normal()), float(rng.normal()))
            for _ in range(int(rng.integers(0, 26)))
        ]
        for u, v in pairs:
            update_transfer(model, u, [v])
        exp_slope, exp_var = brute_slope_and_variance(pairs[-window:], 1e-6)
        assert rel_err(model.slope[0], exp_slope) <= 1e-10
        assert rel_err(model.noise_var[0], exp_var) <= 1e-10

    for _ in range(1000):
        n_tasks = int(rng.integers(2, 7))
        tids = [f"t{j}" for j in range(n_tasks)]
        raw = rng.uniform(0.05, 1.0, size=n_tasks)
        raw /= raw.sum()
        view = SimilarityView({t: float(w) for t, w in zip(tids, raw)})
        models = TransferWindow(tids, 10)
        oracle_models: dict[str, tuple[float, float]] = {}
        retrieved: list[float | None] = []
        for j, t in enumerate(tids):
            models.slope[j] = float(rng.uniform(-2.0, 2.0))
            models.noise_var[j] = float(10.0 ** rng.uniform(-5.0, 1.0))
            oracle_models[t] = (models.slope[j], models.noise_var[j])
            retrieved.append(None if rng.random() < 0.2 else float(rng.normal()))
        observed = float(rng.normal())
        if rng.random() < 0.05:
            observed += 1e4  # force likelihood underflow; the prior must survive
        updated = bayes_update(view, models, observed, retrieved)
        expected = brute_posterior(
            dict(view.weights), oracle_models, observed, dict(zip(tids, retrieved))
        )
        for t in tids:
            assert rel_err(updated.weights[t], expected[t]) <= 1e-10

    for i in range(1000):
        a = rng.normal(size=int(rng.integers(1, 41)))
        b = np.array(a) if i % 5 == 0 else rng.normal(size=int(rng.integers(1, 41)))
        assert rel_err(wasserstein_1d(a.tolist(), b.tolist()), brute_wasserstein(a, b)) <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(1, f"5 equation families x 1000 random inputs within 1e-10 rel, {elapsed:.1f}s")


# --------------------------------------------------------------- criterion 2


def test_criterion_02_derived_gain_and_posterior_invariants():
    """Gain antisymmetry is exact, 4-cycles cancel, posteriors stay normalized."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    edges_checked = squares_checked = 0
    for idx in range(100):
        sizes = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 4)))]
        space = make_space(*sizes)
        store = partial_random_store(
            space, n_tasks=int(rng.integers(1, 4)), coverage=0.85, seed=300 + idx
        )
        for tid in store.task_ids:
            graph = build_graph(store, tid)
            # dual route: gains derived by the store vs. local gain queries
            for rec in store.derive_gains(tid):
                a = store.arch_tuple(rec.arch_from)
                b = store.arch_tuple(rec.arch_to)
                forward = move_gain(graph, a, b)
                backward = move_gain(graph, b, a)
                assert forward == rec.gain
                assert backward == -forward  # exact, bitwise
                edges_checked += 1
            dims, designs = range(len(sizes)), all_designs(space)
            for d1 in dims:
                for d2 in dims:
                    if d2 <= d1:
                        continue
                    for c1 in range(sizes[d1]):
                        for c1b in range(c1 + 1, sizes[d1]):
                            for c2 in range(sizes[d2]):
                                for c2b in range(c2 + 1, sizes[d2]):
                                    for base in designs:
                                        if base[d1] != c1 or base[d2] != c2:
                                            continue
                                        corner_b = list(base)
                                        corner_b[d1] = c1b
                                        corner_c = list(corner_b)
                                        corner_c[d2] = c2b
                                        corner_d = list(base)
                                        corner_d[d2] = c2b
                                        cycle = [
                                            move_gain(graph, base, tuple(corner_b)),
                                            move_gain(graph, tuple(corner_b), tuple(corner_c)),
                                            move_gain(graph, tuple(corner_c), tuple(corner_d)),
                                            move_gain(graph, tuple(corner_d), base),
                                        ]
                                        if any(g is None for g in cycle):
                                            continue
                                        assert abs(math.fsum(cycle)) <= 1e-12
                                        squares_checked += 1
    assert edges_checked > 1000 and squares_checked > 500

    tids = [f"t{j}" for j in range(5)]
    view = SimilarityView({t: 0.2 for t in tids})
    models = TransferWindow(tids, 15)
    for step in range(10_000):
        for t in tids:
            if rng.random() < 0.4:
                u = float(rng.normal())  # drawn before the gain, as the pair is ordered
                update_transfer(models, u, [float(rng.normal()) if x == t else None for x in tids])
        observed = float(rng.normal())
        if step % 997 == 0:
            observed += 1e5  # exercise the underflow path
        retrieved = [None if rng.random() < 0.2 else float(rng.normal()) for _ in tids]
        view = bayes_update(view, models, observed, retrieved)
        assert abs(sum(view.weights.values()) - 1.0) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    announce(
        2,
        f"{edges_checked} edges antisymmetric, {squares_checked} 4-cycles <= 1e-12, "
        f"10k posterior updates normalized, {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 3


def test_criterion_03_woven_scores_equal_expectation_form():
    """Candidate scores equal the weighted sum of available gains to 1e-12."""
    rng = np.random.default_rng(303)
    space = make_space(2, 2)
    designs = all_designs(space)
    checked = 0
    for idx in range(1000):
        n_tasks = int(rng.integers(1, 5))
        tids = [f"t{j:02d}" for j in range(n_tasks)]
        perf_map: dict[str, dict[tuple, float]] = {t: {} for t in tids}
        rows = []
        for t in tids:
            for design in designs:
                if idx % 3 == 0 and rng.random() < 0.3:
                    continue  # partial coverage on a third of the configurations
                value = float(rng.normal())
                perf_map[t][design] = value
                rows.append((t, design, value))
        store = KnowledgeStore.build(space, [TaskRecord(task_id=t) for t in tids], rows)
        raw = rng.uniform(0.0, 1.0, size=n_tasks)
        if raw.sum() == 0.0:
            raw[0] = 1.0
        raw /= raw.sum()
        view = SimilarityView({t: float(w) for t, w in zip(tids, raw)})
        current = designs[int(rng.integers(len(designs)))]
        state = RefinementState(
            current=current,
            current_performance=0.0,
            best=current,
            best_performance=0.0,
            evaluated={},
            t=0,
            budget=1,
            view=view,
            transfers=TransferWindow(tids, 2),
            flags=OodFlags(tids),
        )
        weave = weave_scores(state, store)
        for i, score in enumerate(weave.scores.tolist()):
            _, target = weave.move(i)
            contributions = {
                t: (
                    perf_map[t][target] - perf_map[t][current]
                    if target in perf_map[t] and current in perf_map[t]
                    else None
                )
                for t in tids
            }
            assert abs(score - brute_weave(view.weights, contributions)) <= 1e-12
            checked += 1
    assert checked >= 1000
    announce(3, f"{checked} woven scores equal the weighted-sum form within 1e-12")


# --------------------------------------------------------------- criterion 4


def test_criterion_04_exact_transfer_finds_optimum_with_greedy_moves():
    """With one positively rescaled benchmark, refinement is true-gain greedy."""
    t0 = time.perf_counter()
    shapes = [(4, 4, 4), (5, 4, 3), (6, 3, 4), (5, 5, 4)]
    steps_checked = 0
    for inst in range(50):
        space = make_space(*shapes[inst % len(shapes)])
        assert space.size <= 1000
        gamma = float(np.random.default_rng(1000 + inst).uniform(0.3, 2.5))
        spec = CorrelationSpec(mix=(gamma,), interaction_strength=0.4)
        suite = generate_landscapes(space, 1, spec, seed=2000 + inst)
        config = RunConfig(budget=space.size, seed=inst, init_strategy="uniform")
        report = RefinementEngine(suite.store, config).run(suite.unseen_oracle())
        assert report.best_choices == suite.optimum_design
        assert report.best_performance == suite.optimum_performance
        truth = {d: suite.unseen.performance(d) for d in all_designs(space)}
        evaluated = {report.records[0].to_choices}
        for rec in report.records[1:]:
            origin = rec.from_choices
            gains = {
                nbr: truth[nbr] - truth[origin]
                for _, nbr in space.neighbors(origin)
                if nbr not in evaluated
            }
            best_gain = max(gains.values())
            chosen_gain = gains[rec.to_choices]
            assert best_gain - chosen_gain <= 1e-12 * max(1.0, abs(best_gain))
            evaluated.add(rec.to_choices)
            steps_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(
        4,
        f"50/50 optima found, {steps_checked} moves verified as true-gain argmax, {elapsed:.1f}s",
    )


# ------------------------------------------------- criteria 5 and 9 (shared)


@pytest.fixture(scope="module")
def noisy_copy_outcomes():
    """100 runs where the target task copies one of five benchmarks plus noise.

    Noise scale is 10% of the copied benchmark's median absolute edge gain.
    Returns posterior identification hits and evaluations-to-optimum for the
    engine and for seeded uniform random search on the same instances.
    """
    t0 = time.perf_counter()
    space = make_space(5, 5, 5)
    hits = 0
    evals_engine: list[float] = []
    evals_random: list[float] = []
    for inst in range(100):
        k = inst % 5
        spec = CorrelationSpec(mix=tuple(1.0 if i == k else 0.0 for i in range(5)))
        clean = generate_landscapes(space, 5, spec, seed=3000 + inst)
        graph = build_graph(clean.store, f"bench{k:02d}")
        sigma = 0.1 * statistics.median(abs(s.gain) for s in edge_samples(graph))
        suite = generate_landscapes(
            space, 5, replace(spec, unseen_noise=sigma), seed=3000 + inst
        )
        config = RunConfig(
            budget=100, seed=inst, init_strategy="uniform", ood_adaptation=False
        )
        report = RefinementEngine(suite.store, config).run(suite.unseen_oracle())
        final_weights = report.records[-1].weights
        hits += max(final_weights, key=final_weights.get) == f"bench{k:02d}"
        reached = math.inf
        for i, rec in enumerate(report.records):
            if rec.best_performance == suite.optimum_performance:
                reached = float(i + 1)
                break
        evals_engine.append(reached)
        rand_config = RunConfig(budget=space.size - 1, seed=inst)
        metrics = run_baseline(
            "random",
            rand_config,
            suite.store,
            suite.unseen_oracle(),
            optimum=suite.optimum_performance,
        )
        evals_random.append(evaluations_to_reach(metrics, suite.optimum_performance))
    return {
        "hits": hits,
        "engine": evals_engine,
        "random": evals_random,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_05_posterior_identifies_copied_benchmark(noisy_copy_outcomes):
    """The copied benchmark ends with the largest weight in >= 90 of 100 runs."""
    hits = noisy_copy_outcomes["hits"]
    elapsed = noisy_copy_outcomes["elapsed"]
    assert hits >= 90
    assert elapsed < 300.0
    announce(5, f"copied benchmark got top weight in {hits}/100 runs, {elapsed:.1f}s")


def test_criterion_09_needs_at_most_half_the_evaluations_of_random(noisy_copy_outcomes):
    """Median evaluations-to-optimum is at most half of random search's."""
    med_engine = statistics.median(noisy_copy_outcomes["engine"])
    med_random = statistics.median(noisy_copy_outcomes["random"])
    assert med_engine <= 0.5 * med_random
    announce(
        9,
        f"median evaluations-to-optimum {med_engine:g} vs {med_random:g} for random search",
    )


# --------------------------------------------------------------- criterion 6


def test_criterion_06_dynamic_updates_beat_frozen_misleading_weights():
    """With a prior peaked on an uncorrelated benchmark, updates cut regret."""
    t0 = time.perf_counter()
    space = make_space(5, 5, 5)
    spec = CorrelationSpec(
        mix=(0.7, 0.3, 0.0), independent_strength=0.25, unseen_noise=0.05
    )
    misleading = {"bench00": 0.03, "bench01": 0.03, "bench02": 0.94}
    regret_dynamic: list[float] = []
    regret_static: list[float] = []
    for inst in range(100):
        suite = generate_landscapes(space, 3, spec, seed=4000 + inst)
        config = RunConfig(
            budget=20,
            seed=inst,
            init_strategy="explicit",
            init_weights=misleading,
            ood_adaptation=False,
        )
        report = RefinementEngine(suite.store, config).run(suite.unseen_oracle())
        regret_dynamic.append(suite.optimum_performance - report.best_performance)
        metrics = run_baseline(
            "static_weave",
            config,
            suite.store,
            suite.unseen_oracle(),
            optimum=suite.optimum_performance,
        )
        regret_static.append(metrics.final_regret)
    med_dynamic = statistics.median(regret_dynamic)
    med_static = statistics.median(regret_static)
    elapsed = time.perf_counter() - t0
    assert med_dynamic < med_static
    assert elapsed < 600.0
    announce(
        6,
        f"median final regret {med_dynamic:.4f} (dynamic) < {med_static:.4f} (static), {elapsed:.1f}s",
    )


# --------------------------------------------------------------- criterion 7


def test_criterion_07_low_weight_adaptation_helps_on_adversarial_task():
    """When every benchmark anti-correlates, surrogate adaptation can only help."""
    t0 = time.perf_counter()
    space = make_space(5, 5, 5)
    spec = CorrelationSpec(
        mix=(-0.25,) * 5, independent_strength=1.0, unseen_noise=0.02
    )
    planner = PlannerSettings(
        hidden_dim=32, pretrain_epochs=150, finetune_epochs=40, replay_mix=0.2
    )
    regret_on: list[float] = []
    regret_off: list[float] = []
    flagged_runs = 0
    r2_deltas: list[float] = []
    for inst in range(50):
        suite = generate_landscapes(space, 5, spec, seed=5000 + inst)
        base = dict(
            budget=80, seed=inst, init_strategy="uniform", window=20, planner=planner
        )
        engine_on = RefinementEngine(suite.store, RunConfig(ood_adaptation=True, **base))
        report_on = engine_on.run(suite.unseen_oracle())
        regret_on.append(suite.optimum_performance - report_on.best_performance)
        engine_off = RefinementEngine(suite.store, RunConfig(ood_adaptation=False, **base))
        report_off = engine_off.run(suite.unseen_oracle())
        regret_off.append(suite.optimum_performance - report_off.best_performance)
        flagged = report_on.records[-1].flagged
        if flagged:
            flagged_runs += 1
            target_graph = build_graph(suite.full_store("unseen"), "unseen")
            samples = edge_samples(target_graph)
            for tid in flagged:
                before = prediction_r2(engine_on.pretrained(tid), samples)
                after = prediction_r2(report_on.regressors[tid], samples)
                r2_deltas.append(after - before)
    med_on = statistics.median(regret_on)
    med_off = statistics.median(regret_off)
    elapsed = time.perf_counter() - t0
    assert flagged_runs >= 25  # the adversarial setup must actually trip flags
    assert med_on <= med_off
    assert statistics.median(r2_deltas) > 0.0
    assert elapsed < 600.0
    announce(
        7,
        f"median final regret {med_on:.4f} (adaptive) <= {med_off:.4f} (off); "
        f"surrogate fit improved by {statistics.median(r2_deltas):.2f} median R^2 "
        f"across {len(r2_deltas)} flagged regressors, {elapsed:.0f}s",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_08_analytic_gradients_match_finite_differences():
    """Training gradients agree with central differences on 10 random batches."""
    shapes = [(3, 3), (2, 4, 3)]
    for batch in range(10):
        rng = np.random.default_rng(800 + batch)
        space = make_space(*shapes[batch % 2])
        reg = GainRegressor(space, RegressorHyper(hidden_dim=8, seed=batch))
        reg.params()["w_out"][...] = rng.normal(0.0, 0.5, size=reg.params()["w_out"].shape)
        reg.params()["b_in"][...] = rng.normal(0.0, 0.1, size=reg.params()["b_in"].shape)
        designs = all_designs(space)
        rows = []
        for design in designs[:6]:
            for _, nbr in space.neighbors(design)[:2]:
                rows.append((design, nbr))
        fwd = np.stack([edge_features(space, a, b) for a, b in rows])
        bwd = np.stack([edge_features(space, b, a) for a, b in rows])
        moves = np.stack([fwd, bwd])
        _, pred, _ = loss_grads(reg, moves, np.zeros(len(rows)))
        offsets = rng.uniform(0.05, 0.6, size=len(rows)) * rng.choice([-1.0, 1.0], size=len(rows))
        target = pred + offsets  # residuals bounded away from the L1 kink
        loss, _, grads = loss_grads(reg, moves, target)
        assert loss > 0.0
        h = 1e-5
        for key in ("w_in", "b_in", "w_out"):
            param = reg.params()[key]
            flat_grad = grads[key].ravel()
            for i in rng.choice(param.size, size=min(15, param.size), replace=False):
                orig = param.flat[i]
                param.flat[i] = orig + h
                up, _, _ = loss_grads(reg, moves, target)
                param.flat[i] = orig - h
                down, _, _ = loss_grads(reg, moves, target)
                param.flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = flat_grad[i]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale <= 1e-4
    announce(8, "analytic gradients within 1e-4 of central differences on 10 batches")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_seeded_cli_pipelines_are_byte_identical(tmp_path):
    """Repeating any seeded command pipeline reproduces every output file."""
    space_file = tmp_path / "space.txt"
    space_file.write_text("width: [64, 128, 256]\ndepth: [2, 4, 8]\n", encoding="utf-8")
    run_config = tmp_path / "run.json"
    run_config.write_text(
        '{"budget": 8, "seed": 5, '
        '"planner": {"hidden_dim": 8, "pretrain_epochs": 20, "finetune_epochs": 5}}',
        encoding="utf-8",
    )
    outputs: dict[str, list[bytes]] = {}
    for attempt in ("first", "second"):
        root = tmp_path / attempt
        assert cli_run(
            ["synth", "--space", str(space_file), "--seed", "11", "--out", str(root / "synth")]
        ) == 0
        store = str(root / "synth" / "store.json")
        assert cli_run(
            ["refine", "--store", store, "--config", str(run_config), "--out", str(root / "refine")]
        ) == 0
        assert cli_run(
            [
                "baseline", "--store", store, "--config", str(run_config),
                "--kind", "static_weave", "--out", str(root / "baseline"),
            ]
        ) == 0
        assert cli_run(["stats", "--store", store, "--out", str(root / "stats")]) == 0
        for rel in (
            "synth/store.json",
            "synth/truth.json",
            "refine/report.jsonl",
            "refine/summary.json",
            "refine/trajectory.csv",
            "baseline/summary.json",
            "baseline/trajectory.csv",
            "stats/stats.json",
            "stats/consistency.csv",
        ):
            outputs.setdefault(rel, []).append((root / rel).read_bytes())
    for rel, (first, second) in outputs.items():
        assert first == second, f"{rel} differs between identical seeded runs"
    announce(10, f"{len(outputs)} report files byte-identical across repeated runs")
