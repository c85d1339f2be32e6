"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json
import os
import struct
import sys
from pathlib import Path

# One OpenBLAS thread: the surrogates' products are tiny, and on a loaded host
# extra BLAS threads cost more than they save.  OpenBLAS reads this setting
# when numpy is first imported, so it must be set before that import.
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest

from mdesign.graph import GainGraph, local_gains
from mdesign.space import DesignDimension, DesignSpace, DesignTuple
from mdesign.store import KnowledgeStore, TaskRecord


def make_space(*sizes: int, prefix: str = "dim") -> DesignSpace:
    """A design space with `sizes[d]` integer-labelled candidates per dimension."""
    dims = tuple(
        DesignDimension(f"{prefix}{d}", tuple(f"c{c}" for c in range(size)))
        for d, size in enumerate(sizes)
    )
    return DesignSpace(dims)


def all_designs(space: DesignSpace) -> list[DesignTuple]:
    """Every design tuple of ``space``, in mixed-radix rank order."""
    return list(map(space.tuple_at, range(space.size)))


def full_random_store(
    space: DesignSpace,
    n_tasks: int,
    seed: int,
    stat_names: tuple[str, ...] = ("s0", "s1", "s2"),
) -> KnowledgeStore:
    """A store with every architecture measured on every task, random scores."""
    rng = np.random.default_rng(seed)
    tasks = []
    perf_rows = []
    for k in range(n_tasks):
        tid = f"task{k:02d}"
        tasks.append(
            TaskRecord(
                task_id=tid,
                stats=tuple(float(v) for v in rng.normal(size=len(stat_names))),
            )
        )
        perf_rows.extend(
            (tid, design, float(rng.normal())) for design in all_designs(space)
        )
    return KnowledgeStore.build(space, tasks, perf_rows, stat_names=stat_names)


def partial_random_store(
    space: DesignSpace,
    n_tasks: int,
    coverage: float,
    seed: int,
    stat_names: tuple[str, ...] = ("s0", "s1", "s2"),
) -> KnowledgeStore:
    """A store where each task measures a random subset of architectures."""
    rng = np.random.default_rng(seed)
    designs = all_designs(space)
    tasks = []
    perf_rows = []
    for k in range(n_tasks):
        tid = f"task{k:02d}"
        tasks.append(
            TaskRecord(
                task_id=tid,
                stats=tuple(float(v) for v in rng.normal(size=len(stat_names))),
            )
        )
        keep = max(2, int(round(coverage * len(designs))))
        chosen = rng.choice(len(designs), size=min(keep, len(designs)), replace=False)
        perf_rows.extend(
            (tid, designs[int(i)], float(rng.normal())) for i in sorted(chosen)
        )
    return KnowledgeStore.build(space, tasks, perf_rows, stat_names=stat_names)


def coverage_store(sizes, coverage, seed: int) -> KnowledgeStore:
    """Tasks ``t0, t1, ...`` measuring none, one, part or all of ``make_space(*sizes)``.

    ``coverage[k]`` is task ``k``'s kind; the designs and values are drawn from ``seed``.
    """
    space = make_space(*sizes)
    designs = all_designs(space)
    rng = np.random.default_rng(seed)
    rows = []
    for k, kind in enumerate(coverage):
        n = {"none": 0, "one": 1, "part": int(rng.integers(2, space.size + 1)), "all": space.size}
        for i in sorted(rng.choice(space.size, size=n[kind], replace=False).tolist()):
            rows.append((f"t{k}", designs[i], float(rng.normal())))
    return KnowledgeStore.build(space, [TaskRecord(f"t{k}") for k in range(len(coverage))], rows)


def read_store_file(path) -> tuple[dict, list[int], list[list[float]]]:
    """A version-5 store file as ``(header, ranks, one list of floats per task)``."""
    line, _, body = Path(path).read_bytes().partition(b"\n")
    header = json.loads(line)
    designs, tasks = header["designs"], len(header["tasks"])
    ranks = list(struct.unpack(f"<{designs}q", body[: 8 * designs]))
    values = struct.unpack(f"<{designs * tasks}d", body[8 * designs :])
    return header, ranks, [list(values[k * designs : (k + 1) * designs]) for k in range(tasks)]


def write_store_file(path, header: dict | bytes, ranks: list | bytes, perf: list) -> None:
    """Write ``read_store_file``'s parts back as a store file, exactly as given.

    A dict header is written as ``persist`` writes it, one line of sorted-key
    JSON and its newline.  Any part given as bytes is written as it is, so a
    test can write a faulty file: the ranks, a row of ``perf``, or the header
    line with or without its newline.
    """
    def packed(values: list | bytes, code: str) -> bytes:
        return values if isinstance(values, bytes) else struct.pack(f"<{len(values)}{code}", *values)

    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    rows = b"".join(packed(row, "d") for row in perf)
    Path(path).write_bytes(header + packed(ranks, "q") + rows)


def assert_records_close(actual: list[dict], expected: list[dict], atol: float) -> None:
    """Two lists of report records agree: every float within ``atol``, everything else equal.

    A float field (``woven_gain``, ``actual_gain``, ``performance``,
    ``best_performance`` and each entry of ``weights``) may differ by up to
    ``atol``; every other field (``t``, ``event``, ``from``, ``to``,
    ``jumped``, ``flagged``, ``sources``, the labels and the weights' task
    order) must be equal.  A failure names the first differing record and field.
    """
    def close(x, y) -> bool:
        if isinstance(y, float):
            return isinstance(x, float) and abs(x - y) <= atol
        if isinstance(y, dict):  # the weights
            return list(x) == list(y) and all(close(x[k], y[k]) for k in y)
        return x == y

    assert len(actual) == len(expected), f"{len(actual)} records, expected {len(expected)}"
    for i, (got, want) in enumerate(zip(actual, expected)):
        assert list(got) == list(want), f"record {i}: fields {list(got)}, expected {list(want)}"
        for key, value in want.items():
            assert close(got[key], value), f"record {i}, field {key!r}: {got[key]!r}, expected {value!r}"


def loss_grads(reg, moves: np.ndarray, target: np.ndarray):
    """One regressor's MAE, predictions and per-block (sub)gradients of ``(2, rows, features)`` moves."""
    from mdesign.planner import _blocks, _stacked_loss_grads

    grads = np.empty((1, reg.flat.size))
    losses, pred = _stacked_loss_grads(
        reg.flat[None],
        reg.hyper.hidden_dim,
        moves[:, None],
        np.asarray(target)[None],
        grads,
    )
    d_w_in, d_b_in, d_w_out = _blocks(grads[0], reg.hyper.hidden_dim)
    return float(losses[0]), pred[0], {"w_in": d_w_in, "b_in": d_b_in, "w_out": d_w_out}


def pretrain_on_graph(graph: GainGraph, hyper=None):
    """``pretrain_regressor`` on a gain graph's ``edge_samples``, as ``featurize`` makes them moves."""
    from mdesign.graph import edge_samples
    from mdesign.planner import RegressorHyper, featurize, pretrain_regressor

    edges = featurize(graph.store.space, edge_samples(graph))
    hyper = RegressorHyper() if hyper is None else hyper
    return pretrain_regressor(graph.store.space, graph.task_id, edges, hyper)


def move_gain(graph: GainGraph, a: DesignTuple, b: DesignTuple) -> float | None:
    """Gain of the one-hop move ``a -> b`` on the graph's task, read from ``local_gains``."""
    gains = local_gains(graph, a)
    for mod, nbr in graph.store.space.neighbors(a):
        if nbr == b:
            return gains[mod]
    raise AssertionError(f"{a} and {b} are not one modification apart")


@pytest.fixture
def space_3x3() -> DesignSpace:
    return make_space(3, 3)


@pytest.fixture
def space_3x4x2() -> DesignSpace:
    return make_space(3, 4, 2)
