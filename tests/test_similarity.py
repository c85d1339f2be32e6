"""Similarity engine: rank-correlation init, transfer fits, Bayes updates."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_space
from mdesign.similarity import (
    COLD_START_VAR_SCALE,
    NOISE_FLOOR,
    SimilarityError,
    SimilarityView,
    TransferWindow,
    bayes_update,
    explicit_similarity,
    gaussian_likelihood,
    init_similarity_kendall,
    kendall_tau,
    uniform_similarity,
    update_transfer,
)
from mdesign.store import KnowledgeStore, TaskRecord
from oracles import (
    ReferenceTransferModel,
    brute_kendall_tau,
    brute_posterior,
    brute_slope_and_variance,
    reference_bayes_update,
    reference_update_transfer,
)

# ------------------------------------------------------------------ kendall tau


def test_kendall_identity_and_reversal():
    assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_kendall_one_discordant_pair():
    # one swapped pair out of six disagrees: (5 - 1) / 6
    assert kendall_tau([1, 2, 3, 4], [1, 2, 4, 3]) == pytest.approx(2 / 3)


def test_kendall_two_discordant_pairs():
    # adjacent swaps in both halves: (4 - 2) / 6
    assert kendall_tau([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(1 / 3)


def test_kendall_constant_vector_scores_zero():
    assert kendall_tau([1.0, 1.0, 1.0], [1, 2, 3]) == 0.0
    assert kendall_tau([1, 2, 3], [5.0, 5.0, 5.0]) == 0.0


def test_kendall_input_validation():
    with pytest.raises(SimilarityError):
        kendall_tau([1, 2, 3], [1, 2])
    with pytest.raises(SimilarityError):
        kendall_tau([1], [2])
    with pytest.raises(SimilarityError):
        kendall_tau([1, float("nan")], [1, 2])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=12),
    st.data(),
)
def test_kendall_matches_pair_counting_oracle(x, data):
    y = data.draw(
        st.lists(
            st.integers(min_value=-5, max_value=5), min_size=len(x), max_size=len(x)
        )
    )
    assert kendall_tau(x, y) == pytest.approx(brute_kendall_tau(x, y), abs=1e-12)


# ----------------------------------------------------------- gaussian likelihood


def test_gaussian_unit_peak():
    # at zero residual and variance 1/(2*pi), the density is exactly 1
    lk = gaussian_likelihood(0.3, 0.3, 1.0, 1.0 / (2.0 * math.pi))
    assert lk == pytest.approx(1.0, rel=1e-12)


def test_gaussian_standard_peak():
    lk = gaussian_likelihood(0.0, 0.0, 1.0, 1.0)
    assert lk == pytest.approx(0.3989422804014327, rel=1e-12)


def test_gaussian_one_sigma_out():
    lk = gaussian_likelihood(1.0, 0.0, 1.0, 1.0)
    assert lk == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12)
    assert lk == pytest.approx(0.24197072451914337, rel=1e-12)


def test_gaussian_slope_rescales_prediction():
    # observed 2.0 against retrieved 1.0 under slope 2 is a perfect match
    lk = gaussian_likelihood(2.0, 1.0, 2.0, 1.0)
    assert lk == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_gaussian_rejects_bad_variance():
    with pytest.raises(SimilarityError):
        gaussian_likelihood(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(SimilarityError):
        gaussian_likelihood(0.0, 0.0, 1.0, -1.0)
    with pytest.raises(SimilarityError):
        gaussian_likelihood(0.0, 0.0, float("inf"), 1.0)


# -------------------------------------------------------------- transfer models


def one_window(window_size: int, noise_floor: float = NOISE_FLOOR) -> TransferWindow:
    """A transfer window over the single task ``"a"``."""
    return TransferWindow(["a"], window_size, noise_floor)


def push(window: TransferWindow, observed: float, retrieved: float) -> None:
    update_transfer(window, observed, [retrieved])


def fit(window: TransferWindow) -> tuple[float, float]:
    return window.slope[0], window.noise_var[0]


def test_cold_start_is_neutral():
    model = one_window(30)
    assert fit(model) == (1.0, NOISE_FLOOR * COLD_START_VAR_SCALE)
    push(model, 5.0, 1.0)
    # one pair is still cold
    assert fit(model) == (1.0, NOISE_FLOOR * COLD_START_VAR_SCALE)


def test_exact_double_relationship():
    model = one_window(30)
    push(model, 2.0, 1.0)
    push(model, 4.0, 2.0)
    assert model.slope[0] == pytest.approx(2.0, rel=1e-12)
    assert model.noise_var[0] == NOISE_FLOOR  # zero residuals clamp to the floor


def test_zero_retrieved_keeps_unit_slope():
    model = one_window(30)
    push(model, 1.0, 0.0)
    push(model, 2.0, 0.0)
    assert model.slope[0] == 1.0
    assert model.noise_var[0] == pytest.approx(2.5)  # mean of 1^2 and 2^2


def test_three_point_fit():
    model = one_window(30)
    for pair in [(1.0, 1.0), (3.0, 2.0), (2.0, 3.0)]:
        push(model, *pair)
    assert model.slope[0] == pytest.approx(13 / 14, rel=1e-12)
    assert model.noise_var[0] == pytest.approx(9 / 14, rel=1e-12)


def test_window_eviction():
    model = one_window(2)
    for pair in [(9.0, 1.0), (2.0, 1.0), (4.0, 2.0)]:
        push(model, *pair)
    assert len(model.window("a")) == 2
    assert model.slope[0] == pytest.approx(2.0)  # the (9, 1) outlier was evicted


def test_window_size_validation():
    with pytest.raises(SimilarityError):
        one_window(1)
    with pytest.raises(SimilarityError):
        one_window(30, noise_floor=0.0)


def test_update_rejects_non_finite():
    model = one_window(30)
    with pytest.raises(SimilarityError):
        push(model, float("nan"), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
        min_size=0,
        max_size=50,
    ),
    window=st.integers(min_value=2, max_value=12),
)
def test_fit_matches_loop_oracle(pairs, window):
    model = one_window(window)
    for obs, ret in pairs:
        push(model, obs, ret)
    slope, var = brute_slope_and_variance(model.window("a"), NOISE_FLOOR)
    assert len(model.window("a")) <= window
    assert model.slope[0] == pytest.approx(slope, rel=1e-9, abs=1e-12)
    if len(model.window("a")) < 2:
        assert model.noise_var[0] == NOISE_FLOOR * COLD_START_VAR_SCALE
    else:
        assert model.noise_var[0] == pytest.approx(var, rel=1e-9, abs=1e-15)


COLD_START = (1.0, NOISE_FLOOR * COLD_START_VAR_SCALE)


def test_overflowing_fit_keeps_the_cold_start_state():
    # both dot products overflow: slope inf / inf = nan
    model = one_window(2)
    push(model, 1e200, 1e200)
    push(model, 2e200, 1e200)
    assert fit(model) == COLD_START
    model = TransferWindow(["a", "b"], 2)
    for observed, retrieved in [(1e200, 1e200), (2e200, 1e200)]:
        update_transfer(model, observed, [retrieved, retrieved])
    view = bayes_update(uniform_similarity(["a", "b"]), model, 1.0, [0.5, None])
    assert view.total() == pytest.approx(1.0)
    # finite pairs push the overflowing ones out and the fit resumes
    update_transfer(model, 2.0, [1.0, None])
    update_transfer(model, 4.0, [2.0, None])
    assert (model.slope[0], model.noise_var[0]) == (2.0, NOISE_FLOOR)
    assert (model.slope[1], model.noise_var[1]) == COLD_START
    # unit slope (zero retrieved), but the squared residuals overflow
    model = one_window(30)
    push(model, 1e200, 0.0)
    push(model, -1e200, 0.0)
    assert fit(model) == COLD_START


def _pair_bytes(window) -> bytes:
    return np.array(list(window), dtype=float).reshape(-1, 2).tobytes()


def _fit_bytes(slope: float, noise_var: float) -> bytes:
    """A fit's exact bytes; a reference fit that is not finite stands for the cold start."""
    if not (math.isfinite(slope) and math.isfinite(noise_var)):
        slope, noise_var = COLD_START
    return struct.pack("<2d", slope, noise_var)


_GAINS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e150, -1e150]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    window=st.one_of(st.sampled_from([20, 30, 40]), st.integers(2, 40)),
    pairs=st.integers(0, 120).flatmap(
        lambda n: st.lists(st.tuples(_GAINS, _GAINS), min_size=n, max_size=n)
    ),
    zero_retrieved=st.booleans(),
    overflow_at=st.none() | st.integers(0, 119),
)
def test_window_fits_bit_for_bit_like_the_deque_reference(
    window, pairs, zero_retrieved, overflow_at
):
    model, reference = one_window(window), ReferenceTransferModel(window)
    for push_at, (observed, retrieved) in enumerate(pairs):
        if push_at == overflow_at:
            observed = 1e200  # may overflow the fit until this pair is evicted
        retrieved = 0.0 if zero_retrieved else retrieved
        push(model, observed, retrieved)
        with np.errstate(over="ignore", invalid="ignore"):  # only the reference may warn
            reference_update_transfer(reference, (observed, retrieved))
        assert _pair_bytes(model.window("a")) == _pair_bytes(reference.window)
        assert _fit_bytes(*fit(model)) == _fit_bytes(reference.slope, reference.noise_var)


_SPECIAL_GAINS = (0.0, -0.0, 5e-324, 1e150, -1e150)


def _ragged_steps(seed: int, steps: int, tasks: int, skip: float) -> list:
    """``(observed, per-task retrieved or None)`` per step, many of them special values."""
    rng = np.random.default_rng(seed)

    def gain() -> float:
        if rng.random() < 0.3:
            return _SPECIAL_GAINS[int(rng.integers(len(_SPECIAL_GAINS)))]
        return float(rng.uniform(-1e3, 1e3))

    return [
        (gain(), [None if rng.random() < skip else gain() for _ in range(tasks)])
        for _ in range(steps)
    ]


@settings(max_examples=150, deadline=None)
@given(
    window=st.one_of(st.sampled_from([20, 30, 40]), st.integers(2, 40)),
    tasks=st.integers(1, 6),
    steps=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
    skip=st.sampled_from([0.0, 0.2, 0.6]),
    overflow_at=st.none() | st.tuples(st.integers(0, 119), st.integers(0, 5)),
)
def test_stacked_window_fits_each_task_bit_for_bit_like_the_deque_reference(
    window, tasks, steps, seed, skip, overflow_at
):
    """Ragged pushes (``None``: the task is skipped) give each task its lone reference fit."""
    ids = [f"t{j}" for j in range(tasks)]
    stacked = TransferWindow(ids, window)
    references = {tid: ReferenceTransferModel(window) for tid in ids}
    for step, (observed, values) in enumerate(_ragged_steps(seed, steps, tasks, skip)):
        retrieved = list(values)
        if overflow_at is not None and step == overflow_at[0] and overflow_at[1] < tasks:
            retrieved[overflow_at[1]] = 1e200  # may overflow that task's fit for a while
        update_transfer(stacked, observed, retrieved)
        for j, tid in enumerate(ids):
            reference = references[tid]
            if retrieved[j] is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # only the reference may warn
                    reference_update_transfer(reference, (observed, retrieved[j]))
            assert _pair_bytes(stacked.window(tid)) == _pair_bytes(reference.window)
            assert _fit_bytes(stacked.slope[j], stacked.noise_var[j]) == _fit_bytes(
                reference.slope, reference.noise_var
            )


def test_push_rejects_a_non_finite_value_before_pushing_any():
    model = TransferWindow(["a", "b"], 3)
    with pytest.raises(SimilarityError):
        update_transfer(model, 1.0, [1.0, math.inf])
    assert model.window("a") == []


# ----------------------------------------------------------------- bayes update


def _fixed_models(fits: dict[str, tuple[float, float]]) -> TransferWindow:
    """A window whose tasks hold the given ``(slope, variance)`` fits."""
    model = TransferWindow(list(fits), 30)
    model.slope = [slope for slope, _ in fits.values()]
    model.noise_var = [variance for _, variance in fits.values()]
    return model


def test_posterior_four_to_one():
    # likelihoods 0.4 and 0.1 against a uniform prior give weights 0.8 / 0.2
    v = 1.0 / (2.0 * math.pi)  # unit prefactor
    transfers = _fixed_models({"a": (1.0, v), "b": (1.0, v)})
    retrieved = [
        -math.sqrt(math.log(1 / 0.4) / math.pi),
        -math.sqrt(math.log(1 / 0.1) / math.pi),
    ]
    view = uniform_similarity(["a", "b"])
    out = bayes_update(view, transfers, 0.0, retrieved)
    assert out.weights["a"] == pytest.approx(0.8, rel=1e-12)
    assert out.weights["b"] == pytest.approx(0.2, rel=1e-12)
    assert out.iteration == 1


def test_posterior_recovers_from_skewed_prior():
    # equal-but-opposite likelihoods wash a 0.9/0.1 prior back to 0.5/0.5
    v = 1.0 / (2.0 * math.pi)
    transfers = _fixed_models({"a": (1.0, v), "b": (1.0, v)})
    r_a = math.sqrt(math.log(1 / 0.1) / math.pi)
    r_b = math.sqrt(math.log(1 / 0.9) / math.pi)
    view = explicit_similarity({"a": 0.9, "b": 0.1})
    out = bayes_update(view, transfers, 0.0, [r_a, r_b])
    assert out.weights["a"] == pytest.approx(0.5, rel=1e-9)
    assert out.weights["b"] == pytest.approx(0.5, rel=1e-9)


def test_equal_likelihoods_keep_prior():
    transfers = _fixed_models({"a": (1.0, 1.0), "b": (1.0, 1.0)})
    view = explicit_similarity({"a": 0.7, "b": 0.3})
    out = bayes_update(view, transfers, 0.5, [0.2, 0.2])
    assert out.weights["a"] == pytest.approx(0.7, rel=1e-12)
    assert out.weights["b"] == pytest.approx(0.3, rel=1e-12)


def test_missing_retrieval_is_neutral():
    # the absent task gets the mean likelihood, so only present tasks shift
    transfers = _fixed_models({tid: (1.0, 1.0) for tid in ("a", "b", "c")})
    view = uniform_similarity(["a", "b", "c"])
    out = bayes_update(view, transfers, 0.0, [0.0, 2.0, None])
    lk_a = gaussian_likelihood(0.0, 0.0, 1.0, 1.0)
    lk_b = gaussian_likelihood(0.0, 2.0, 1.0, 1.0)
    lk_c = (lk_a + lk_b) / 2.0
    total = lk_a + lk_b + lk_c
    assert out.weights["a"] == pytest.approx(lk_a / total, rel=1e-12)
    assert out.weights["b"] == pytest.approx(lk_b / total, rel=1e-12)
    assert out.weights["c"] == pytest.approx(lk_c / total, rel=1e-12)


def test_all_missing_keeps_prior():
    transfers = _fixed_models({"a": (1.0, 1.0), "b": (1.0, 1.0)})
    view = explicit_similarity({"a": 0.6, "b": 0.4})
    out = bayes_update(view, transfers, 1.0, [None, None])
    assert out.weights == pytest.approx(view.weights)
    assert out.iteration == 1


def test_total_underflow_keeps_prior():
    transfers = _fixed_models({"a": (1.0, 1e-6), "b": (1.0, 1e-6)})
    view = explicit_similarity({"a": 0.6, "b": 0.4})
    # residuals ~1e3 against sigma ~1e-3: exp(-5e11) underflows to exactly 0
    out = bayes_update(view, transfers, 1000.0, [0.0, 0.0])
    assert out.weights == pytest.approx(view.weights)
    assert out.iteration == 1


def test_posterior_matches_independent_oracle():
    import numpy as np

    rng = np.random.default_rng(42)
    ids = [f"t{i}" for i in range(6)]
    for trial in range(20):
        weights = rng.random(len(ids)) + 0.01
        weights /= weights.sum()
        view = SimilarityView(dict(zip(ids, weights)), iteration=trial)
        models = {}
        for tid in ids:
            slope = float(rng.normal(1.0, 0.5))
            var = float(rng.uniform(0.01, 2.0))
            models[tid] = (slope, var)
        transfers = _fixed_models(models)
        observed = float(rng.normal())
        retrieved = [None if rng.random() < 0.25 else float(rng.normal()) for _ in ids]
        out = bayes_update(view, transfers, observed, retrieved)
        expected = brute_posterior(dict(view.weights), models, observed, dict(zip(ids, retrieved)))
        for tid in ids:
            assert out.weights[tid] == pytest.approx(expected[tid], rel=1e-9, abs=1e-12)
        assert out.iteration == trial + 1


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    steps=st.integers(min_value=1, max_value=40),
)
def test_posterior_stays_normalized(seed, steps):
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = ["a", "b", "c", "d"]
    view = uniform_similarity(ids)
    transfers = TransferWindow(ids, 10)
    for _ in range(steps):
        observed = float(rng.normal())
        retrieved = [None if rng.random() < 0.2 else float(rng.normal()) for _ in ids]
        view = bayes_update(view, transfers, observed, retrieved)
        update_transfer(transfers, observed, retrieved)
        assert abs(view.total() - 1.0) <= 1e-9
        assert all(w >= 0.0 for w in view.weights.values())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.5, max_value=2.0, allow_nan=False),
)
def test_posterior_invariant_under_common_rescaling(seed, scale):
    """Scaling every gain in the problem by a constant leaves weights unchanged.

    Slopes are scale-free and variances pick up scale^2, so each likelihood
    changes by the same factor, which normalization removes.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = ["a", "b", "c"]
    base_pairs = {
        tid: [(float(rng.normal()), float(rng.normal())) for _ in range(5)] for tid in ids
    }
    observed = float(rng.normal())
    retrieved = [float(rng.normal()) for _ in ids]

    def run(k: float) -> SimilarityView:
        transfers = TransferWindow(ids, 10)
        for tid in ids:
            for obs, ret in base_pairs[tid]:
                update_transfer(transfers, k * obs, [k * ret if t == tid else None for t in ids])
        view = uniform_similarity(ids)
        return bayes_update(view, transfers, k * observed, [k * r for r in retrieved])

    plain = run(1.0)
    scaled = run(scale)
    for tid in ids:
        assert scaled.weights[tid] == pytest.approx(plain.weights[tid], rel=1e-9)


def _view_bytes(view: SimilarityView) -> tuple:
    return list(view.weights), struct.pack(f"<{len(view.weights)}d", *view.weights.values())


@settings(max_examples=300, deadline=None)
@given(
    tasks=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    none_share=st.sampled_from([0.0, 0.25, 1.0]),
    fits=st.sampled_from(["cold", "pushed", "fixed"]),
    observed_scale=st.sampled_from([1.0, 1e2, 1e6]),  # 1e6 underflows every likelihood
)
def test_bayes_step_equals_the_task_keyed_reference_bit_for_bit(
    tasks, seed, none_share, fits, observed_scale
):
    rng = np.random.default_rng(seed)
    ids = [f"t{j}" for j in range(tasks)]
    transfers = TransferWindow(ids, 10)
    if fits == "pushed":
        for _ in range(int(rng.integers(1, 15))):
            values = [None if rng.random() < 0.3 else float(rng.normal()) for _ in ids]
            update_transfer(transfers, float(rng.normal()), values)
    elif fits == "fixed":
        transfers.slope = rng.normal(1.0, 0.5, tasks).tolist()
        transfers.noise_var = (10.0 ** rng.uniform(-8.0, 3.0, tasks)).tolist()
    weights = rng.random(tasks) * (rng.random(tasks) > 0.1)
    view = SimilarityView(dict(zip(ids, weights.tolist())), iteration=int(rng.integers(5)))
    observed = float(rng.normal(0.0, observed_scale))
    retrieved = [None if rng.random() < none_share else float(rng.normal()) for _ in ids]
    ours = bayes_update(view, transfers, observed, retrieved)
    reference = reference_bayes_update(view, transfers, observed, dict(zip(ids, retrieved)))
    assert _view_bytes(ours) == _view_bytes(reference)
    assert ours.iteration == reference.iteration == view.iteration + 1


def test_task_ordered_inputs_are_checked():
    transfers = TransferWindow(["a", "b"], 5)
    for retrieved in ([], [1.0], [1.0, None, 2.0]):
        with pytest.raises(SimilarityError, match="retrieved gains"):
            update_transfer(transfers, 1.0, retrieved)
        with pytest.raises(SimilarityError, match="retrieved gains"):
            bayes_update(uniform_similarity(["a", "b"]), transfers, 1.0, retrieved)
    for tasks in (["b", "a"], ["a"], ["a", "b", "c"]):
        with pytest.raises(SimilarityError, match="view tasks"):
            bayes_update(uniform_similarity(tasks), transfers, 1.0, [1.0, 2.0])
    assert transfers.window("a") == transfers.window("b") == []


# --------------------------------------------------------------- initialization


def _stats_store(stats_by_task: dict[str, tuple[float, ...]], names: tuple[str, ...]):
    space = make_space(2, 2)
    tasks = [TaskRecord(tid, stats=stats) for tid, stats in stats_by_task.items()]
    rows = [(tid, (0, 0), 0.5) for tid in stats_by_task]
    return KnowledgeStore.build(space, tasks, rows, stat_names=names)


def test_init_prefers_rank_aligned_benchmark():
    names = ("s0", "s1", "s2", "s3")
    store = _stats_store(
        {
            "aligned": (1.0, 2.0, 3.0, 4.0),
            "swapped": (1.0, 2.0, 4.0, 3.0),
            "reversed": (4.0, 3.0, 2.0, 1.0),
        },
        names,
    )
    view = init_similarity_kendall({"s0": 1, "s1": 2, "s2": 3, "s3": 4}, store)
    # scores: (tau+1)/2 = 1, 5/6, 0 -> normalized over 11/6
    assert view.weights["aligned"] == pytest.approx(6 / 11, rel=1e-12)
    assert view.weights["swapped"] == pytest.approx(5 / 11, rel=1e-12)
    assert view.weights["reversed"] == pytest.approx(0.0, abs=1e-15)
    assert view.total() == pytest.approx(1.0, rel=1e-12)


def test_init_all_anticorrelated_falls_back_to_uniform():
    names = ("s0", "s1", "s2")
    store = _stats_store(
        {"x": (3.0, 2.0, 1.0), "y": (30.0, 20.0, 10.0)},
        names,
    )
    view = init_similarity_kendall({"s0": 1, "s1": 2, "s2": 3}, store)
    assert view.weights == {"x": 0.5, "y": 0.5}


def test_init_schema_mismatch_rejected():
    store = _stats_store({"x": (1.0, 2.0)}, ("s0", "s1"))
    with pytest.raises(SimilarityError, match="schema"):
        init_similarity_kendall({"s0": 1.0}, store)
    with pytest.raises(SimilarityError, match="schema"):
        init_similarity_kendall({"s0": 1.0, "s1": 2.0, "s9": 3.0}, store)


def test_init_needs_two_statistics():
    store = _stats_store({"x": (1.0,)}, ("s0",))
    with pytest.raises(SimilarityError, match="two"):
        init_similarity_kendall({"s0": 1.0}, store)


def test_uniform_view():
    view = uniform_similarity(["a", "b", "c", "d"])
    assert view.total() == pytest.approx(1.0)
    assert view.weights["a"] == 0.25
    with pytest.raises(SimilarityError):
        uniform_similarity([])


def test_explicit_view_normalizes():
    view = explicit_similarity({"a": 3.0, "b": 1.0})
    assert view.weights == {"a": 0.75, "b": 0.25}
    with pytest.raises(SimilarityError):
        explicit_similarity({"a": 0.0, "b": 0.0})
    with pytest.raises(SimilarityError):
        explicit_similarity({})


def test_view_validation():
    with pytest.raises(SimilarityError):
        SimilarityView({})
    with pytest.raises(SimilarityError):
        SimilarityView({"a": -0.1})
    with pytest.raises(SimilarityError):
        SimilarityView({"a": float("nan")})
