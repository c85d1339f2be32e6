"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import os
import sys

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
            (tid, design, float(rng.normal())) for design in space.iter_tuples()
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
    designs = list(space.iter_tuples())
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
