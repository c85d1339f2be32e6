"""Per-task gain graphs: node and edge counts, edge samples, local gain queries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import full_random_store, make_space, move_gain, partial_random_store
from mdesign.graph import (
    GraphError,
    build_graph,
    edge_list_text,
    edge_samples,
    local_gains,
)
from mdesign.store import KnowledgeStore, TaskRecord


def chain_store():
    """Single 3-candidate dimension, all three designs measured."""
    space = make_space(3)
    rows = [("t", (0,), 0.1), ("t", (1,), 0.2), ("t", (2,), 0.4)]
    return KnowledgeStore.build(space, [TaskRecord("t")], rows)


# ------------------------------------------------------------------- structure


def test_single_dimension_all_pairs_adjacent():
    graph = build_graph(chain_store(), "t")
    assert graph.node_count == 3
    assert graph.edge_count == 3  # every pair differs in the one dimension


def test_single_node_graph_has_no_edges():
    space = make_space(3)
    store = KnowledgeStore.build(space, [TaskRecord("t")], [("t", (1,), 0.5)])
    graph = build_graph(store, "t")
    assert graph.node_count == 1
    assert graph.edge_count == 0
    assert edge_samples(graph) == []


def test_full_2x2_grid_counts():
    store = full_random_store(make_space(2, 2), n_tasks=1, seed=0)
    graph = build_graph(store, "task00")
    assert graph.node_count == 4
    assert graph.edge_count == 4  # the four sides of the square; no diagonals


def test_unknown_task_rejected():
    with pytest.raises(GraphError, match="unknown task"):
        build_graph(chain_store(), "nope")


# ---------------------------------------------------------------- edge queries


def test_gain_between_measured_designs():
    graph = build_graph(chain_store(), "t")
    assert move_gain(graph, (0,), (1,)) == pytest.approx(0.1)
    assert move_gain(graph, (0,), (2,)) == pytest.approx(0.3)
    assert move_gain(graph, (1,), (2,)) == pytest.approx(0.2)
    assert move_gain(graph, (2,), (0,)) == pytest.approx(-0.3)


def test_gain_between_unmeasured_is_none():
    space = make_space(3, 2)
    rows = [("t", (0, 0), 0.1), ("t", (1, 0), 0.4)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    graph = build_graph(store, "t")
    assert move_gain(graph, (0, 0), (1, 0)) == pytest.approx(0.3)
    assert move_gain(graph, (0, 0), (0, 1)) is None
    assert move_gain(graph, (2, 0), (1, 0)) is None


# ---------------------------------------------------------------- edge samples


def test_edge_samples_match_store_gains():
    store = full_random_store(make_space(3, 2), n_tasks=1, seed=3)
    graph = build_graph(store, "task00")
    for s in edge_samples(graph):
        assert move_gain(graph, s.from_design, s.to_design) == s.gain


def test_edge_samples_deterministic():
    store = full_random_store(make_space(3, 3), n_tasks=1, seed=5)
    g1 = build_graph(store, "task00")
    g2 = build_graph(store, "task00")
    assert edge_samples(g1) == edge_samples(g2)


# ----------------------------------------------------------------- local gains


def test_local_gains_full_coverage():
    store = full_random_store(make_space(3, 3), n_tasks=1, seed=11)
    graph = build_graph(store, "task00")
    design = (1, 1)
    gains = local_gains(graph, design)
    assert len(gains) == 4
    assert all(value is not None for value in gains.values())
    perfs = store.performances("task00")
    here = perfs[store.arch_id_of(design)]
    for mod, value in gains.items():
        nbr = design[: mod.dim] + (mod.to_choice,) + design[mod.dim + 1 :]
        assert value == perfs[store.arch_id_of(nbr)] - here


def test_local_gains_from_unmeasured_design_all_none():
    space = make_space(3, 2)
    rows = [("t", (0, 0), 0.1), ("t", (1, 0), 0.4)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    graph = build_graph(store, "t")
    gains = local_gains(graph, (2, 1))
    assert len(gains) == 3
    assert all(value is None for value in gains.values())


def test_local_gains_partial_coverage_has_none_holes():
    space = make_space(3, 2)
    rows = [("t", (0, 0), 0.1), ("t", (1, 0), 0.4), ("t", (0, 1), 0.2)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    graph = build_graph(store, "t")
    gains = {
        (mod.dim, mod.to_choice): value for mod, value in local_gains(graph, (0, 0)).items()
    }
    assert gains[(0, 1)] == pytest.approx(0.3)  # to (1, 0)
    assert gains[(1, 1)] == pytest.approx(0.1)  # to (0, 1)
    assert gains[(0, 2)] is None  # (2, 0) unmeasured


# ------------------------------------------------------------------ invariants


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_closed_walks_sum_to_zero(seed):
    store = full_random_store(make_space(3, 3), n_tasks=1, seed=seed)
    graph = build_graph(store, "task00")
    space = store.space
    rng = np.random.default_rng(seed)
    design = space.tuple_at(int(rng.integers(space.size)))
    start = design
    total = 0.0
    for _ in range(12):
        mods = space.neighbors(design)
        mod, nxt = mods[int(rng.integers(len(mods)))]
        total += move_gain(graph, design, nxt)
        design = nxt
    # close the walk, stepping back towards the start
    while design != start:
        for d in range(len(design)):
            if design[d] != start[d]:
                nxt = design[:d] + (start[d],) + design[d + 1 :]
                total += move_gain(graph, design, nxt)
                design = nxt
                break
    assert abs(total) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_edge_count_matches_local_gains(seed):
    store = partial_random_store(make_space(3, 2, 2), n_tasks=2, coverage=0.7, seed=seed)
    for tid in store.task_ids:
        graph = build_graph(store, tid)
        measured_moves = sum(
            value is not None
            for design in store.arch_tuples
            for value in local_gains(graph, design).values()
        )
        assert measured_moves == 2 * graph.edge_count


# ---------------------------------------------------------------------- export


def test_edge_list_text_shape():
    graph = build_graph(chain_store(), "t")
    text = edge_list_text(graph)
    lines = text.strip().splitlines()
    assert lines[0] == "# task t: 3 nodes, 3 edges"
    assert len(lines) == 1 + graph.edge_count
    assert "c0 -> c1 : 0.1" in lines[1]


def test_edge_list_text_deterministic():
    store = full_random_store(make_space(3, 3), n_tasks=1, seed=9)
    assert edge_list_text(build_graph(store, "task00")) == edge_list_text(
        build_graph(store, "task00")
    )
