"""Planner internals: edge features, edge batches of moves, gain regressor, OOD flags."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_designs, full_random_store, loss_grads, make_space, pretrain_on_graph
from mdesign.graph import EdgeSample, build_graph, edge_samples
from mdesign.planner import (
    PERSIST_STEPS,
    SURROGATE_LEARNING_RATE,
    SURROGATE_MAX_SAMPLES,
    GainRegressor,
    OodFlags,
    PlannerError,
    RegressorHyper,
    edge_features,
    feature_length,
    featurize,
    fine_tune,
    move_features,
    predict_gain,
    pretrain_regressor,
    update_ood_flags,
    wasserstein_1d,
)
from mdesign.planner import _train  # internals under test
from mdesign.similarity import SimilarityError, SimilarityView, TransferWindow, update_transfer
from mdesign.space import DesignSpaceError
from mdesign.store import KnowledgeStore, TaskRecord
from oracles import brute_wasserstein, reference_edge_features, reference_predict_gain

# ---------------------------------------------------------------- featurization


def test_feature_length():
    assert feature_length(make_space(3, 3)) == 12
    assert feature_length(make_space(3, 4, 2)) == 18


def test_edge_feature_layout():
    space = make_space(3, 3)
    vec = edge_features(space, (0, 0), (1, 0))
    assert vec.tolist() == [1, 0, 0, 1, 0, 0, -1, 1, 0, 0, 0, 0]
    vec = edge_features(space, (2, 1), (2, 2))
    assert vec.tolist() == [0, 0, 1, 0, 1, 0, 0, 0, 0, 0, -1, 1]


def test_edge_feature_blocks_balance():
    space = make_space(3, 4, 2)
    width = 9
    for design in [(0, 0, 0), (2, 3, 1), (1, 2, 0)]:
        for mod, nbr in space.neighbors(design):
            vec = edge_features(space, design, nbr)
            assert vec[:width].sum() == 3.0  # one hot per dimension
            assert vec[width:].sum() == 0.0  # +1 and -1 cancel
            assert np.count_nonzero(vec[width:]) == 2


def test_edge_features_reject_non_moves():
    space = make_space(3, 3)
    with pytest.raises(PlannerError):
        edge_features(space, (0, 0), (0, 0))
    with pytest.raises(PlannerError):
        edge_features(space, (0, 0), (1, 1))


# -------------------------------------------------------------------- regressor


def linear_store(seed: int = 0, scale: float = 0.2):
    """Store whose gains are exactly differences of per-dimension utilities."""
    space = make_space(3, 3)
    rng = np.random.default_rng(seed)
    utilities = [rng.normal(0.0, scale, size=3) for _ in range(2)]
    rows = [
        ("t", design, float(sum(u[c] for u, c in zip(utilities, design))))
        for design in all_designs(space)
    ]
    return KnowledgeStore.build(space, [TaskRecord("t")], rows)


def test_untrained_regressor_predicts_zero():
    space = make_space(3, 3)
    reg = GainRegressor(space, RegressorHyper())
    for mod, nbr in space.neighbors((1, 1)):
        assert predict_gain(reg, (1, 1), nbr) == 0.0


def test_prediction_antisymmetry_is_exact():
    space = make_space(3, 4, 2)
    reg = GainRegressor(space, RegressorHyper(seed=3))
    rng = np.random.default_rng(7)
    reg.params()["w_out"][...] = rng.normal(size=64)  # give it arbitrary structure
    for design in [(0, 0, 0), (1, 2, 1), (2, 3, 0)]:
        for _, nbr in space.neighbors(design):
            fwd = predict_gain(reg, design, nbr)
            bwd = predict_gain(reg, nbr, design)
            assert fwd == -bwd  # bitwise, not approx


def test_regressor_seeding_is_deterministic():
    space = make_space(3, 3)
    a = GainRegressor(space, RegressorHyper(seed=11))
    b = GainRegressor(space, RegressorHyper(seed=11))
    c = GainRegressor(space, RegressorHyper(seed=12))
    assert np.array_equal(a.params()["w_in"], b.params()["w_in"])
    assert not np.array_equal(a.params()["w_in"], c.params()["w_in"])


def test_pretrain_fits_linear_gains():
    graph = build_graph(linear_store(seed=5), "t")
    reg, mae = pretrain_on_graph(graph, RegressorHyper(seed=0))
    assert mae <= 0.02
    preds, trues = [], []
    for rec in graph.store.derive_gains("t"):
        a = graph.store.arch_tuple(rec.arch_from)
        b = graph.store.arch_tuple(rec.arch_to)
        preds.append(predict_gain(reg, a, b))
        trues.append(rec.gain)
    preds, trues = np.array(preds), np.array(trues)
    ss_res = float(np.sum((preds - trues) ** 2))
    ss_tot = float(np.sum(trues**2))
    assert 1.0 - ss_res / ss_tot >= 0.9


def test_pretrain_all_zero_gains_is_exact():
    space = make_space(3, 3)
    rows = [("t", design, 0.25) for design in all_designs(space)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    reg, mae = pretrain_on_graph(build_graph(store, "t"))
    assert mae == 0.0
    assert predict_gain(reg, (0, 0), (1, 0)) == 0.0


def test_pretrain_single_edge_converges():
    space = make_space(2)
    rows = [("t", (0,), 0.1), ("t", (1,), 0.4)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    reg, mae = pretrain_on_graph(build_graph(store, "t"))
    assert mae <= 1e-3
    assert predict_gain(reg, (0,), (1,)) == pytest.approx(0.3, abs=5e-3)


def test_pretrain_empty_graph_rejected():
    space = make_space(3)
    store = KnowledgeStore.build(space, [TaskRecord("t")], [("t", (0,), 0.5)])
    with pytest.raises(PlannerError, match="no edges"):
        pretrain_on_graph(build_graph(store, "t"))


def test_pretrain_is_deterministic():
    graph = build_graph(linear_store(seed=2), "t")
    r1, m1 = pretrain_on_graph(graph, RegressorHyper(seed=9))
    r2, m2 = pretrain_on_graph(graph, RegressorHyper(seed=9))
    assert m1 == m2
    assert np.array_equal(r1.params()["w_out"], r2.params()["w_out"])
    assert np.array_equal(r1.params()["w_in"], r2.params()["w_in"])


def test_pretrain_sample_cap_subsamples():
    store = full_random_store(make_space(5, 5, 5), n_tasks=1, seed=4)
    graph = build_graph(store, store.task_ids[0])
    assert 2 * len(edge_samples(graph)) > SURROGATE_MAX_SAMPLES
    reg, mae = pretrain_on_graph(graph, RegressorHyper(seed=0, epochs=5))  # should not raise
    assert math.isfinite(mae)


def test_hyper_validation():
    with pytest.raises(PlannerError):
        RegressorHyper(hidden_dim=0)
    with pytest.raises(PlannerError):
        RegressorHyper(epochs=0)
    with pytest.raises(PlannerError):
        RegressorHyper(replay_mix=-0.5)
    for overrides in (
        {"hidden_dim": 2.5},
        {"hidden_dim": True},
        {"hidden_dim": "8"},
        {"epochs": 2.5},
        {"epochs": True},
        {"seed": -1},
        {"seed": 1.0},
        {"seed": False},
        {"replay_mix": True},
        {"replay_mix": math.nan},
        {"replay_mix": math.inf},
        {"replay_mix": 10**400},
        {"replay_mix": "0.5"},
    ):
        with pytest.raises(PlannerError, match=next(iter(overrides))):
            RegressorHyper(**overrides)


# --------------------------------------------------------------- gradient check


def test_analytic_gradients_match_central_differences():
    space = make_space(3, 3)
    rng = np.random.default_rng(123)
    reg = GainRegressor(space, RegressorHyper(hidden_dim=8, seed=1))
    reg.params()["w_out"][...] = rng.normal(0.0, 0.5, size=reg.params()["w_out"].shape)
    reg.params()["b_in"][...] = rng.normal(0.0, 0.1, size=reg.params()["b_in"].shape)
    designs = all_designs(space)
    rows = []
    for design in designs[:6]:
        for _, nbr in space.neighbors(design)[:2]:
            rows.append((design, nbr, float(rng.normal(0.0, 0.5))))
    fwd = np.stack([edge_features(space, a, b) for a, b, _ in rows])
    bwd = np.stack([edge_features(space, b, a) for a, b, _ in rows])
    moves = np.stack([fwd, bwd])
    target = np.array([g for _, _, g in rows])

    loss, _, grads = loss_grads(reg, moves, target)
    assert loss > 0.0
    h = 1e-5
    for key in ("w_in", "b_in", "w_out"):
        param = reg.params()[key]
        flat_grad = grads[key].ravel()
        flat_idx = rng.choice(param.size, size=min(20, param.size), replace=False)
        for i in flat_idx:
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


# ------------------------------------------------- plain 2-D reference, bit for bit


def plain_loss_grads(w, fwd, bwd, target):
    """One regressor's MAE, predictions and gradients: 2-D numpy, fresh temporaries."""
    h_f = np.tanh(fwd @ w["w_in"].T + w["b_in"])
    h_b = np.tanh(bwd @ w["w_in"].T + w["b_in"])
    pred = (h_f @ w["w_out"] - h_b @ w["w_out"]) / 2.0
    resid = pred - target
    g = np.sign(resid) / (2.0 * resid.size)
    dz_f = (g[:, None] * w["w_out"][None, :]) * (1.0 - h_f * h_f)
    dz_b = (-g[:, None] * w["w_out"][None, :]) * (1.0 - h_b * h_b)
    grads = {
        "w_in": dz_f.T @ fwd + dz_b.T @ bwd,
        "b_in": dz_f.sum(axis=0) + dz_b.sum(axis=0),
        "w_out": h_f.T @ g - h_b.T @ g,
    }
    return float(np.mean(np.abs(resid))), pred, grads


def plain_pretrain(graph, hyper):
    """``pretrain_regressor`` without stacking or in-place updates: best MAE and flat params."""
    space = graph.store.space
    samples = edge_samples(graph)
    if 2 * len(samples) > SURROGATE_MAX_SAMPLES:
        rng = np.random.default_rng(hyper.seed)
        keep = rng.choice(len(samples), size=SURROGATE_MAX_SAMPLES // 2, replace=False)
        samples = [samples[i] for i in np.sort(keep)]
    rows = []
    for s in samples:
        move = edge_features(space, s.from_design, s.to_design)
        reverse = edge_features(space, s.to_design, s.from_design)
        rows.append((move, reverse, s.gain))
    fwd = np.array([f for f, _, _ in rows])
    bwd = np.array([b for _, b, _ in rows])
    target = np.array([t for _, _, t in rows])
    d_in = fwd.shape[1]
    rng = np.random.default_rng(hyper.seed)
    w = {
        "w_in": rng.normal(0.0, 1.0 / math.sqrt(d_in), size=(hyper.hidden_dim, d_in)),
        "b_in": np.zeros(hyper.hidden_dim),
        "w_out": np.zeros(hyper.hidden_dim),
    }
    moment1 = {key: np.zeros_like(value) for key, value in w.items()}
    moment2 = {key: np.zeros_like(value) for key, value in w.items()}
    best_loss, best = math.inf, None
    for step in range(1, hyper.epochs + 2):
        loss, _, grads = plain_loss_grads(w, fwd, bwd, target)
        if loss < best_loss:
            best_loss, best = loss, np.concatenate([w["w_in"].ravel(), w["b_in"], w["w_out"]])
        if step > hyper.epochs:
            break
        for key, grad in grads.items():
            moment1[key] = 0.9 * moment1[key] + (1.0 - 0.9) * grad
            moment2[key] = 0.999 * moment2[key] + (1.0 - 0.999) * grad * grad
            m_hat = moment1[key] / (1.0 - 0.9**step)
            v_hat = moment2[key] / (1.0 - 0.999**step)
            w[key] = w[key] - SURROGATE_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
    return best_loss, best


@pytest.mark.parametrize("seed, kept", [(0, None), (4, None), (7, SURROGATE_MAX_SAMPLES)])
def test_pretrain_matches_a_plain_reference_bit_for_bit(seed, kept):
    """``kept`` directed samples of a space with more edges (750 of 5x5x5), or None for all."""
    space = make_space(3, 4, 2) if kept is None else make_space(5, 5, 5)
    store = full_random_store(space, n_tasks=1, seed=seed)
    graph = build_graph(store, store.task_ids[0])
    hyper = RegressorHyper(hidden_dim=8, epochs=25, seed=seed)
    if kept is not None:
        assert 2 * len(edge_samples(graph)) > kept  # the subsample is taken
    reg, mae = pretrain_on_graph(graph, hyper)
    expected_mae, expected_flat = plain_pretrain(graph, hyper)
    assert mae == expected_mae
    assert np.array_equal(reg.flat, expected_flat)


@pytest.mark.parametrize("sizes, seed", [((3, 4, 2), 2), ((5, 5, 5), 7)], ids=["all", "subsampled"])
def test_pretraining_trains_one_row_per_sampled_edge(monkeypatch, sizes, seed):
    """``_train`` gets each seeded edge once: its move and its reverse, as ``move_features`` writes them."""
    space = make_space(*sizes)
    store = full_random_store(space, n_tasks=1, seed=seed)
    edges = featurize(space, edge_samples(build_graph(store, store.task_ids[0])))
    n = min(len(edges), SURROGATE_MAX_SAMPLES // 2)
    if n < len(edges):  # pretraining's seeded subsample of the edges
        ids = np.sort(np.random.default_rng(seed).choice(len(edges), size=n, replace=False))
    else:
        ids = np.arange(n)
    seen = {}

    def spy(regs, moves, target, epochs, keep_distribution=False):
        seen.update(moves=moves, target=target)
        return np.zeros(len(regs))

    monkeypatch.setattr("mdesign.planner._train", spy)
    pretrain_regressor(space, "t", edges, RegressorHyper(seed=seed))
    assert seen["moves"].shape == (2, 1, n, feature_length(space))
    assert np.array_equal(seen["moves"][:, 0], move_features(space, edges.starts[ids], edges.ends[ids]))
    assert np.array_equal(seen["target"], edges.target[ids][None])


def test_one_row_per_edge_has_the_loss_and_gradient_of_interleaved_reverse_rows():
    """A reverse row ``b -> a`` with gain ``-g`` repeats its edge's loss and gradient, up to rounding."""
    space = make_space(5, 5, 5)
    store = full_random_store(space, n_tasks=1, seed=3)
    edges = featurize(space, edge_samples(build_graph(store, store.task_ids[0])))
    n = len(edges)
    pairs = np.stack([edges.starts, edges.ends], axis=1)  # each edge, then its reverse
    interleaved = move_features(space, pairs.reshape(2 * n, -1), pairs[:, ::-1].reshape(2 * n, -1))
    both_ways = np.stack([edges.target, -edges.target], axis=1).reshape(2 * n)
    once = move_features(space, edges.starts, edges.ends)
    rng = np.random.default_rng(11)
    for seed in range(20):
        reg = GainRegressor(space, RegressorHyper(seed=seed))
        reg.params()["w_out"][...] = rng.normal(0.0, 0.5, size=reg.params()["w_out"].shape)
        reg.params()["b_in"][...] = rng.normal(0.0, 0.1, size=reg.params()["b_in"].shape)
        loss, _, grads = loss_grads(reg, once, edges.target)
        expected_loss, _, expected_grads = loss_grads(reg, interleaved, both_ways)
        assert abs(loss - expected_loss) <= 1e-14 * expected_loss
        flat, expected = (np.concatenate([g[k].ravel() for k in g]) for g in (grads, expected_grads))
        assert np.abs(flat - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("trained", [False, True])
def test_loss_grads_match_a_plain_reference_bit_for_bit(trained):
    space = make_space(3, 4, 2)
    rng = np.random.default_rng(3)
    reg = GainRegressor(space, RegressorHyper(hidden_dim=8, seed=2))
    if trained:  # an untrained regressor's zero output layer zeroes most gradients
        reg.params()["w_out"][...] = rng.normal(0.0, 0.5, size=reg.params()["w_out"].shape)
        reg.params()["b_in"][...] = rng.normal(0.0, 0.1, size=reg.params()["b_in"].shape)
    rows = [
        (design, nbr) for design in all_designs(space)[:9] for _, nbr in space.neighbors(design)[:3]
    ]
    fwd = np.stack([edge_features(space, a, b) for a, b in rows])
    bwd = np.stack([edge_features(space, b, a) for a, b in rows])
    moves = np.stack([fwd, bwd])
    target = rng.normal(0.0, 0.3, size=len(rows))
    target[0] = reg.predict(moves[:, :1])[0]  # a zero residual: sign 0
    loss, pred, grads = loss_grads(reg, moves, target)
    expected_loss, expected_pred, expected_grads = plain_loss_grads(
        {key: value.copy() for key, value in reg.params().items()}, fwd, bwd, target
    )
    assert loss == expected_loss
    assert np.array_equal(pred, expected_pred)
    for key, value in expected_grads.items():
        assert np.array_equal(grads[key], value)


# ------------------------------------------------------------------- fine-tuning


def replay_from(pairs):
    """Observed ``(from, to, gain)`` moves as a replay batch, oldest first."""
    space = make_space(3, 3)  # the space of every fine-tuning test below
    return featurize(space, [EdgeSample(a, b, g) for a, b, g in pairs])


def rows_of(edges):
    """An edge batch's ``move_features`` rows and gains."""
    return move_features(make_space(3, 3), edges.starts, edges.ends), edges.target


def test_fine_tune_empty_buffer_rejected():
    space = make_space(3, 3)
    reg = GainRegressor(space, RegressorHyper())
    with pytest.raises(PlannerError, match="empty"):
        fine_tune([reg], featurize(space, []), [featurize(space, [])], [reg.hyper])


def test_fine_tune_single_observation_converges():
    space = make_space(3, 3)
    reg = GainRegressor(space, RegressorHyper(seed=0, replay_mix=0.0))
    replay = replay_from([((0, 0), (1, 0), 0.5)])
    [mae] = fine_tune([reg], replay, [featurize(space, [])], [reg.hyper])
    assert mae <= 5e-3
    assert predict_gain(reg, (0, 0), (1, 0)) == pytest.approx(0.5, abs=1e-2)


def test_fine_tune_never_increases_training_error():
    space = make_space(3, 3)
    graph = build_graph(linear_store(seed=8), "t")
    reg, _ = pretrain_on_graph(graph, RegressorHyper(seed=0))
    rng = np.random.default_rng(4)
    pairs = []
    for design in [(0, 0), (1, 1), (2, 2), (0, 1)]:
        for _, nbr in space.neighbors(design)[:2]:
            pairs.append((design, nbr, float(rng.normal(0.0, 0.3))))
    replay = replay_from(pairs)
    moves, target = rows_of(replay)
    before = float(np.mean(np.abs(reg.predict(moves) - target)))
    hyper = RegressorHyper(seed=0, replay_mix=0.0, epochs=40)
    [after] = fine_tune([reg], replay, [featurize(space, [])], [hyper])
    assert after <= before + 1e-12


def test_fine_tune_never_widens_distribution_gap():
    space = make_space(3, 3)
    graph = build_graph(linear_store(seed=8), "t")
    reg, _ = pretrain_on_graph(graph, RegressorHyper(seed=0))
    rng = np.random.default_rng(9)
    pairs = []
    for design in [(0, 0), (1, 1), (2, 2)]:
        for _, nbr in space.neighbors(design):
            pairs.append((design, nbr, float(rng.normal(0.0, 0.4))))
    replay = replay_from(pairs)
    moves, target = rows_of(replay)
    hyper = RegressorHyper(seed=0, replay_mix=0.0, epochs=25)
    shift_before = wasserstein_1d(reg.predict(moves), target)
    fine_tune([reg], replay, [featurize(space, [])], [hyper])
    shift_after = wasserstein_1d(reg.predict(moves), target)
    assert shift_after <= shift_before + 1e-9


def test_fine_tune_adapts_to_reversed_landscape():
    """Observed gains opposite to the benchmark's pull predictions across."""
    store = linear_store(seed=3)
    graph = build_graph(store, "t")
    reg, _ = pretrain_on_graph(graph, RegressorHyper(seed=0))
    space = store.space
    pairs = []
    for rec in store.derive_gains("t")[:8]:
        a = store.arch_tuple(rec.arch_from)
        b = store.arch_tuple(rec.arch_to)
        pairs.append((a, b, -rec.gain))
    replay = replay_from(pairs)
    moves, target = rows_of(replay)
    before = float(np.mean(np.abs(reg.predict(moves) - target)))
    hyper = RegressorHyper(seed=0, replay_mix=0.0, epochs=300)
    fine_tune([reg], replay, [featurize(space, [])], [hyper])
    after = float(np.mean(np.abs(reg.predict(moves) - target)))
    assert after < before * 0.5


def test_fine_tune_mixes_benchmark_replay_deterministically():
    store = linear_store(seed=6)
    graph = build_graph(store, "t")
    bench = [
        EdgeSample(store.arch_tuple(r.arch_from), store.arch_tuple(r.arch_to), r.gain)
        for r in store.derive_gains("t")
    ]
    replay = replay_from([((0, 0), (1, 0), 0.2), ((1, 0), (1, 1), -0.1)])
    hyper = RegressorHyper(seed=0, replay_mix=0.5, epochs=10)

    def run():
        reg, _ = pretrain_on_graph(graph, RegressorHyper(seed=0, epochs=20))
        [mae] = fine_tune([reg], replay, [featurize(store.space, bench)], [hyper])
        return reg, mae

    reg_a, mae_a = run()
    reg_b, mae_b = run()
    assert math.isfinite(mae_a)
    assert mae_a == mae_b
    assert np.array_equal(reg_a.params()["w_out"], reg_b.params()["w_out"])
    assert np.array_equal(reg_a.params()["w_in"], reg_b.params()["w_in"])


def test_fine_tune_trains_regressors_together_as_if_alone():
    """One batched round equals separate rounds bit for bit, in every row-count group."""
    store = linear_store(seed=6)
    graph = build_graph(store, "t")
    bench = featurize(store.space, edge_samples(graph))
    few = bench.take(np.arange(2))  # fewer edges than the 4 the replay share asks for
    rng = np.random.default_rng(5)
    pairs = []
    for design in [(0, 0), (1, 1), (2, 2), (0, 2)]:
        for _, nbr in store.space.neighbors(design)[:2]:
            pairs.append((design, nbr, float(rng.normal(0.0, 0.3))))
    replay = replay_from(pairs)
    benches = [bench, bench, few, bench]
    hypers = [RegressorHyper(seed=s, replay_mix=0.5, epochs=15) for s in range(4)]

    def pretrained():
        return [pretrain_on_graph(graph, RegressorHyper(seed=s, epochs=10))[0] for s in range(4)]

    together = pretrained()
    maes = fine_tune(together, replay, benches, hypers)
    assert not np.array_equal(together[0].flat, together[1].flat)
    for k, reg in enumerate(pretrained()):
        [mae] = fine_tune([reg], replay, [benches[k]], [hypers[k]])
        assert mae == maes[k]
        assert np.array_equal(reg.flat, together[k].flat)


def reference_train(reg, moves, target, epochs):
    """Per-regressor Adam over separate parameter blocks, Wasserstein-checking every epoch.

    Returns the best admissible loss, its parameters, and how many iterates
    that would have lowered the loss were rejected as inadmissible.
    """
    w = {key: value.copy() for key, value in reg.params().items()}
    fwd, bwd = moves

    def loss_grads():
        h_f = np.tanh(fwd @ w["w_in"].T + w["b_in"])
        h_b = np.tanh(bwd @ w["w_in"].T + w["b_in"])
        pred = (h_f @ w["w_out"] - h_b @ w["w_out"]) / 2.0
        resid = pred - target
        g = np.sign(resid) / (2.0 * resid.size)
        dz_f = (g[:, None] * w["w_out"][None, :]) * (1.0 - h_f * h_f)
        dz_b = (-g[:, None] * w["w_out"][None, :]) * (1.0 - h_b * h_b)
        grads = {
            "w_in": dz_f.T @ fwd + dz_b.T @ bwd,
            "b_in": dz_f.sum(axis=0) + dz_b.sum(axis=0),
            "w_out": h_f.T @ g - h_b.T @ g,
        }
        return float(np.mean(np.abs(resid))), pred, grads

    bound = wasserstein_1d(loss_grads()[1], target) + 1e-12
    moment1 = {key: np.zeros_like(value) for key, value in w.items()}
    moment2 = {key: np.zeros_like(value) for key, value in w.items()}
    best_loss, best, rejected = math.inf, None, 0
    for step in range(1, epochs + 2):
        loss, pred, grads = loss_grads()
        if wasserstein_1d(pred, target) > bound:
            rejected += loss < best_loss
        elif loss < best_loss:
            best_loss, best = loss, {key: value.copy() for key, value in w.items()}
        if step > epochs:
            break
        for key, grad in grads.items():
            moment1[key] = 0.9 * moment1[key] + (1.0 - 0.9) * grad
            moment2[key] = 0.999 * moment2[key] + (1.0 - 0.999) * grad * grad
            m_hat = moment1[key] / (1.0 - 0.9**step)
            v_hat = moment2[key] / (1.0 - 0.999**step)
            w[key] -= SURROGATE_LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
    return best_loss, best, rejected


def test_train_matches_a_reference_that_checks_every_epoch():
    """Stacked training with lazy Wasserstein checks keeps exactly the reference's iterates."""
    space = make_space(3, 4, 2)

    def regressors():
        rng = np.random.default_rng(1)
        regs = []
        for k in range(3):
            reg = GainRegressor(space, RegressorHyper(hidden_dim=8, seed=k))
            reg.params()["w_out"][...] = rng.normal(0.0, 0.5, size=reg.params()["w_out"].shape)
            reg.params()["b_in"][...] = rng.normal(0.0, 0.1, size=reg.params()["b_in"].shape)
            regs.append(reg)
        return regs, rng

    regs, rng = regressors()
    samples = [
        EdgeSample(design, nbr, float(rng.normal(0.0, 0.3)))
        for design in all_designs(space)[:10]
        for _, nbr in space.neighbors(design)[:2]
    ]
    edges = featurize(space, samples)
    moves = np.stack([move_features(space, edges.starts, edges.ends)] * 3, axis=1)
    target = np.stack([edges.target + 0.1 * k for k in range(3)])
    expected = [
        reference_train(reg, moves[:, k], target[k], 30) for k, reg in enumerate(regs)
    ]
    losses = _train(regs, moves, target, 30, keep_distribution=True)
    for k, (loss, best, _) in enumerate(expected):
        assert losses[k] == loss
        for key, value in best.items():
            assert np.array_equal(regs[k].params()[key], value)
    # the case matters: rejecting inadmissible iterates changes some task's best
    unconstrained = _train(regressors()[0], moves, target, 30)
    assert sum(rejected for _, _, rejected in expected) > 0
    assert np.any(losses > unconstrained)


@pytest.mark.parametrize("sizes", [(2,), (3, 3), (4, 2, 5), (2, 3, 2, 4)])
def test_featurize_rows_equal_edge_features(sizes):
    space = make_space(*sizes)
    samples = [
        EdgeSample(design, nbr, 0.1 * i)
        for i, design in enumerate(all_designs(space))
        for _, nbr in space.neighbors(design)
    ]
    edges = featurize(space, samples)
    fwd = np.stack([reference_edge_features(space, s.from_design, s.to_design) for s in samples])
    bwd = np.stack([reference_edge_features(space, s.to_design, s.from_design) for s in samples])
    moves = move_features(space, edges.starts, edges.ends)
    assert moves.tobytes() == np.stack([fwd, bwd]).tobytes()
    one_row = np.stack([edge_features(space, s.from_design, s.to_design) for s in samples])
    assert one_row.tobytes() == fwd.tobytes()
    empty = featurize(space, [])
    assert move_features(space, empty.starts, empty.ends).shape == (2, 0, feature_length(space))
    with pytest.raises(PlannerError):
        featurize(space, samples[:1] + [EdgeSample(samples[0].from_design, samples[0].from_design, 0.0)])


def test_featurized_once_rounds_still_reject_out_of_range_designs():
    space = make_space(3, 3)
    with pytest.raises(DesignSpaceError):
        featurize(space, [EdgeSample((0, 3), (0, 0), 0.1)])  # the start is checked
    with pytest.raises(DesignSpaceError):
        featurize(space, [EdgeSample((0, 0), (3, 0), 0.2)])  # and the end


def test_featurize_rejects_non_moves():
    space = make_space(3, 3)
    with pytest.raises(PlannerError):
        featurize(space, [EdgeSample((0, 0), (1, 1), 0.1)])
    with pytest.raises(PlannerError):
        featurize(space, [EdgeSample((0, 0), (0, 0), 0.1)])
    # a step's infinite gain stops at the transfer update, before the log replays it
    with pytest.raises(SimilarityError):
        update_transfer(TransferWindow(["t"], 2), float("inf"), [0.1])


# -------------------------------------------------------------------- OOD flags


def view_with(weights: dict[str, float]) -> SimilarityView:
    return SimilarityView(weights)


def test_flags_trip_after_persistent_low_weight():
    ids = ["a", "b", "c", "d", "e"]
    flags = OodFlags(ids)
    low = {tid: 0.2275 for tid in ids}
    low["a"] = 0.09  # below 0.5 / 5 = 0.1
    for step in range(PERSIST_STEPS):
        update_ood_flags(flags, view_with(low))
        expected = step >= PERSIST_STEPS - 1
        assert flags.is_flagged("a") == expected
    assert flags.flagged_tasks() == ("a",)


def test_flags_reset_on_recovery():
    flags = OodFlags(["a", "b"])
    low = view_with({"a": 0.1, "b": 0.9})  # threshold 0.5 / 2 = 0.25
    high = view_with({"a": 0.5, "b": 0.5})
    for _ in range(PERSIST_STEPS - 1):
        update_ood_flags(flags, low)
    assert flags.streak("a") == PERSIST_STEPS - 1
    update_ood_flags(flags, high)
    assert flags.streak("a") == 0
    for _ in range(PERSIST_STEPS - 1):
        update_ood_flags(flags, low)
    assert not flags.is_flagged("a")


def test_flags_are_sticky_and_streak_freezes():
    flags = OodFlags(["a", "b"])
    low = view_with({"a": 0.05, "b": 0.95})
    high = view_with({"a": 0.6, "b": 0.4})
    for _ in range(PERSIST_STEPS):
        update_ood_flags(flags, low)
    assert flags.is_flagged("a")
    assert flags.streak("a") == PERSIST_STEPS
    for _ in range(10):
        update_ood_flags(flags, high)
    assert flags.is_flagged("a")  # sticky
    assert flags.streak("a") == PERSIST_STEPS  # frozen, so flagged iff streak >= k


def test_flag_invariant_flagged_iff_streak_reaches_persistence():
    import numpy as np

    rng = np.random.default_rng(0)
    ids = [f"t{i}" for i in range(4)]
    flags = OodFlags(ids)
    lows = dict.fromkeys(ids, 0)  # consecutive low steps, counted apart from the flags
    for _ in range(200):
        raw = rng.random(len(ids)) * 0.4
        weights = {tid: float(w) for tid, w in zip(ids, raw / raw.sum())}
        update_ood_flags(flags, view_with(weights))
        for tid in ids:
            lows[tid] = lows[tid] + 1 if weights[tid] < 0.5 / len(ids) else 0
            assert flags.is_flagged(tid) == (flags.streak(tid) >= PERSIST_STEPS)
            assert flags.streak(tid) <= PERSIST_STEPS
            if not flags.is_flagged(tid):
                assert flags.streak(tid) == lows[tid]


def test_flags_threshold_is_relative_to_task_count():
    flags = OodFlags(["a", "b", "c", "d"])
    # threshold 0.5 / 4 = 0.125; weight 0.13 is NOT low
    view = view_with({"a": 0.13, "b": 0.29, "c": 0.29, "d": 0.29})
    for _ in range(2 * PERSIST_STEPS):
        update_ood_flags(flags, view)
    assert flags.flagged_tasks() == ()


def test_flags_validation():
    flags = OodFlags(["a"])
    with pytest.raises(PlannerError):
        flags.streak("zzz")
    with pytest.raises(PlannerError):
        flags.is_flagged("zzz")
    with pytest.raises(PlannerError, match="zzz"):
        update_ood_flags(flags, view_with({"a": 0.0, "zzz": 1.0}))
    assert flags.streak("a") == 0 and flags.flagged_tasks() == ()


# ------------------------------------------------------------------ wasserstein


def test_wasserstein_known_values():
    assert wasserstein_1d([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert wasserstein_1d([0.0, 1.0], [0.0, 3.0]) == pytest.approx(1.0)
    assert wasserstein_1d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(1.0)


def test_wasserstein_translation_shift():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=50)
    assert wasserstein_1d(xs, xs + 0.75) == pytest.approx(0.75, rel=1e-9)


def test_wasserstein_unequal_sizes_match_reference():
    rng = np.random.default_rng(2)
    for _ in range(25):
        xs = rng.normal(size=int(rng.integers(1, 40)))
        ys = rng.normal(size=int(rng.integers(1, 40)))
        assert wasserstein_1d(xs, ys) == pytest.approx(brute_wasserstein(xs, ys), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    xs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30),
    ys=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30),
    zs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30),
)
def test_wasserstein_metric_properties(xs, ys, zs):
    d_xy = wasserstein_1d(xs, ys)
    d_yx = wasserstein_1d(ys, xs)
    assert d_xy >= 0.0
    assert d_xy == pytest.approx(d_yx, rel=1e-12, abs=1e-12)
    assert wasserstein_1d(xs, xs) == 0.0
    d_xz = wasserstein_1d(xs, zs)
    d_yz = wasserstein_1d(ys, zs)
    assert d_xz <= d_xy + d_yz + 1e-9


def test_wasserstein_validation():
    with pytest.raises(PlannerError):
        wasserstein_1d([], [1.0])
    with pytest.raises(PlannerError):
        wasserstein_1d([float("nan")], [1.0])

