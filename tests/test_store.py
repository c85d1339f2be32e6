"""Knowledge-store ingestion, canonicalization, derived gains, persistence."""

from __future__ import annotations

import gc
import json
import math
import random
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_designs,
    coverage_store,
    full_random_store,
    make_space,
    move_gain,
    partial_random_store,
    read_store_file,
    write_store_file,
)
from mdesign import store as store_module
from mdesign.graph import build_graph
from mdesign.harness import CorrelationSpec, generate_landscapes
from mdesign.space import DesignDimension, DesignSpace, DesignSpaceError
from mdesign.store import (
    IngestError,
    KnowledgeStore,
    StoreError,
    StoreFormatError,
    TaskRecord,
    ingest_benchmark,
    load_store,
)
from oracles import reference_derive_gains

SPACE_TEXT = "width: [64, 128]\ndepth: [2, 4]\n"

RECORDS = """task_id,width,depth,performance
cifar10,64,2,0.71
cifar10,64,4,0.74
cifar10,128,2,0.77
cifar10,128,4,0.80
svhn,64,2,0.90
svhn,64,4,0.92
svhn,128,2,0.93
svhn,128,4,0.95
"""

STATS = """task_id,n_classes,input_px
cifar10,10,32
svhn,10,32
"""


@pytest.fixture
def space2x2():
    return DesignSpace(
        [
            DesignDimension("width", ("64", "128")),
            DesignDimension("depth", ("2", "4")),
        ]
    )


@pytest.fixture
def store2x2(space2x2):
    return ingest_benchmark(space2x2, RECORDS, STATS)


# ------------------------------------------------------------------- ingestion


def test_ingest_counts(store2x2):
    assert store2x2.task_ids == ("cifar10", "svhn")
    assert store2x2.arch_count == 4
    assert len(store2x2.performances("cifar10")) == 4
    assert len(store2x2.performances("svhn")) == 4
    assert store2x2.stat_names == ("n_classes", "input_px")
    assert store2x2.stats_vector("cifar10") == (10.0, 32.0)


def test_ingest_column_order_is_free(space2x2, store2x2):
    reordered = """task_id,depth,width,performance
cifar10,2,64,0.71
cifar10,4,64,0.74
cifar10,2,128,0.77
cifar10,4,128,0.80
svhn,2,64,0.90
svhn,4,64,0.92
svhn,2,128,0.93
svhn,4,128,0.95
"""
    assert ingest_benchmark(space2x2, reordered, STATS) == store2x2


def test_ingest_row_order_is_free(space2x2, store2x2, tmp_path):
    lines = RECORDS.strip().splitlines()
    shuffled = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    again = ingest_benchmark(space2x2, shuffled, STATS)
    assert again == store2x2
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    store2x2.persist(p1)
    again.persist(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ingest_unknown_label_names_row(space2x2):
    bad = "task_id,width,depth,performance\ncifar10,96,2,0.7\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest_benchmark(space2x2, bad)


def test_ingest_duplicate_measurement_rejected(space2x2):
    bad = (
        "task_id,width,depth,performance\n"
        "cifar10,64,2,0.71\n"
        "cifar10,64,2,0.72\n"
    )
    with pytest.raises(IngestError, match="duplicate"):
        ingest_benchmark(space2x2, bad)


def test_ingest_non_numeric_performance_rejected(space2x2):
    bad = "task_id,width,depth,performance\ncifar10,64,2,high\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest_benchmark(space2x2, bad)


def test_ingest_non_finite_performance_rejected(space2x2):
    bad = "task_id,width,depth,performance\ncifar10,64,2,nan\n"
    with pytest.raises(IngestError, match="finite"):
        ingest_benchmark(space2x2, bad)


def test_ingest_wrong_dimension_columns_rejected(space2x2):
    bad = "task_id,width,performance\ncifar10,64,0.7\n"
    with pytest.raises(IngestError, match="dimensions"):
        ingest_benchmark(space2x2, bad)


def test_ingest_ragged_row_rejected(space2x2):
    bad = "task_id,width,depth,performance\ncifar10,64,0.7\n"
    with pytest.raises(IngestError, match="row 2"):
        ingest_benchmark(space2x2, bad)


def test_ingest_empty_csv_rejected(space2x2):
    with pytest.raises(IngestError, match="empty"):
        ingest_benchmark(space2x2, "")
    with pytest.raises(IngestError, match="no data rows"):
        ingest_benchmark(space2x2, "task_id,width,depth,performance\n")


def test_ingest_stats_must_cover_exactly_the_tasks(space2x2):
    with pytest.raises(IngestError, match="missing"):
        ingest_benchmark(space2x2, RECORDS, "task_id,n_classes,input_px\ncifar10,10,32\n")
    extra = STATS + "mnist,10,28\n"
    with pytest.raises(IngestError, match="unknown"):
        ingest_benchmark(space2x2, RECORDS, extra)


def test_ingest_min_direction_negates(space2x2):
    manifest = json.dumps(
        {
            "space_size": 4,
            "tasks": {
                "cifar10": {"metric": "top1", "direction": "max"},
                "svhn": {"metric": "latency_ms", "direction": "min"},
            },
        }
    )
    store = ingest_benchmark(space2x2, RECORDS, STATS, manifest)
    assert store.performance_of("svhn", (0, 0)) == -0.90
    assert store.performance_of("cifar10", (0, 0)) == 0.71
    assert store.tasks["svhn"].direction == "min"
    assert store.tasks["svhn"].metric == "latency_ms"
    # best architecture on a negated task is the lowest raw value
    best_id, best = store.best_architecture("svhn")
    assert store.arch_tuple(best_id) == (0, 0)
    assert best == -0.90


def test_manifest_space_size_mismatch_rejected(space2x2):
    manifest = json.dumps({"space_size": 5, "tasks": {}})
    with pytest.raises(IngestError, match="space size"):
        ingest_benchmark(space2x2, RECORDS, STATS, manifest)


def test_manifest_bad_direction_rejected(space2x2):
    manifest = json.dumps(
        {"space_size": 4, "tasks": {"cifar10": {"direction": "up"}}}
    )
    with pytest.raises(IngestError, match="direction"):
        ingest_benchmark(space2x2, RECORDS, STATS, manifest)


def test_manifest_non_string_metric_rejected(space2x2):
    manifest = json.dumps({"space_size": 4, "tasks": {"svhn": {"metric": 5}}})
    with pytest.raises(IngestError) as info:
        ingest_benchmark(space2x2, RECORDS, STATS, manifest)
    assert str(info.value) == "task 'svhn': metric 5 is not a string"


def test_manifest_unknown_tasks_rejected(space2x2):
    """A manifest entry for a task the records lack (a typo, say) is an error, not ignored."""
    manifest = json.dumps(
        {"space_size": 4, "tasks": {"svhn": {"direction": "min"}, "cifar-10": {"direction": "min"}}}
    )
    with pytest.raises(IngestError) as info:
        ingest_benchmark(space2x2, RECORDS, STATS, manifest)
    assert str(info.value) == "manifest lists unknown tasks: ['cifar-10']"
    # a manifest that covers only some of the tasks stays valid
    partial = json.dumps({"space_size": 4, "tasks": {"svhn": {"direction": "min"}}})
    store = ingest_benchmark(space2x2, RECORDS, STATS, partial)
    assert store.tasks["cifar10"].direction == "max"
    assert store.performance_of("cifar10", (0, 0)) == 0.71


def test_manifest_invalid_json_rejected(space2x2):
    with pytest.raises(IngestError, match="JSON"):
        ingest_benchmark(space2x2, RECORDS, STATS, "{not json")


# --------------------------------------------------------------------- queries


def test_performance_lookup(store2x2):
    assert store2x2.performance_of("cifar10", (1, 1)) == 0.80
    assert store2x2.performance_of("cifar10", (0, 1)) == 0.74


def test_unknown_task_rejected(store2x2):
    with pytest.raises(StoreError, match="unknown task"):
        store2x2.performances("mnist")


def test_best_architecture(store2x2):
    best_id, best = store2x2.best_architecture("cifar10")
    assert store2x2.arch_tuple(best_id) == (1, 1)
    assert best == 0.80


def test_best_architecture_tie_takes_lowest_id():
    space = make_space(2, 2)
    rows = [
        ("t", (0, 0), 0.5),
        ("t", (0, 1), 0.9),
        ("t", (1, 0), 0.9),
        ("t", (1, 1), 0.1),
    ]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    best_id, best = store.best_architecture("t")
    assert best == 0.9
    # (0, 1) sorts before (1, 0), so its id is lower
    assert store.arch_tuple(best_id) == (0, 1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_architecture_is_the_lowest_id_maximum_of_the_records(seed):
    partial = partial_random_store(make_space(3, 2, 2), n_tasks=3, coverage=0.4, seed=seed)
    extra = [TaskRecord(tid, (0.0,) * 3) for tid in ("empty", "signed")]
    rows = [("signed", (0, 0, 0), -0.0), ("signed", (0, 0, 1), 0.0)]  # equal: (0, 0, 0) wins
    rows += [
        (tid, partial.arch_tuple(a), v)
        for tid in partial.task_ids
        for a, v in partial.performances(tid).items()
    ]
    store = KnowledgeStore.build(
        partial.space, [*partial.tasks.values(), *extra], rows, partial.stat_names
    )
    for tid in store.task_ids[1:]:  # "empty" sorts first
        perfs = store.performances(tid)
        expected = min(perfs, key=lambda a: (-perfs[a], a))
        best_id, best = store.best_architecture(tid)
        assert best_id == expected
        assert math.copysign(1.0, best) == math.copysign(1.0, perfs[expected])
        assert best == perfs[expected]
    with pytest.raises(StoreError, match="'empty' has no performance records"):
        store.best_architecture("empty")


def test_arch_tuple_takes_only_integer_ids_in_range(store2x2):
    assert store2x2.arch_tuple(np.int64(3)) == store2x2.arch_tuple(3) == (1, 1)
    for bad in (True, 2.0, "1", None):
        with pytest.raises(StoreError, match=f"architecture id {re.escape(repr(bad))} is not an integer"):
            store2x2.arch_tuple(bad)
    for bad in (-1, 4, np.int64(4)):
        with pytest.raises(StoreError, match=f"architecture id {bad} out of range"):
            store2x2.arch_tuple(bad)


def test_arch_ids_follow_sorted_tuple_order(store2x2):
    assert store2x2.arch_tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert store2x2.arch_id_of((1, 0)) == 2
    with pytest.raises(DesignSpaceError):
        store2x2.arch_id_of((9, 9))


def test_build_rejects_duplicate_task_ids(space2x2):
    with pytest.raises(StoreError, match="duplicate task"):
        KnowledgeStore.build(
            space2x2, [TaskRecord("t"), TaskRecord("t")], [("t", (0, 0), 1.0)]
        )


def test_build_rejects_unknown_task_rows(space2x2):
    with pytest.raises(StoreError, match="unknown task"):
        KnowledgeStore.build(space2x2, [TaskRecord("t")], [("u", (0, 0), 1.0)])


def test_build_rejects_stat_arity_mismatch(space2x2):
    with pytest.raises(StoreError, match="statistics"):
        KnowledgeStore.build(
            space2x2, [TaskRecord("t", stats=(1.0,))], [], stat_names=("a", "b")
        )


def test_build_rejects_non_finite_performance(space2x2):
    for value in (math.nan, math.inf, -math.inf, "high", None):
        with pytest.raises(StoreError, match="non-finite"):
            KnowledgeStore.build(space2x2, [TaskRecord("t")], [("t", (0, 0), value)])


def test_subset_keeps_only_named_tasks(store2x2):
    sub = store2x2.subset(["svhn"])
    assert sub.task_ids == ("svhn",)
    assert sub.performance_of("svhn", (1, 1)) == 0.95
    with pytest.raises(StoreError, match="unknown"):
        store2x2.subset(["svhn", "mnist"])


def _rebuilt(store: KnowledgeStore, keep: list[str]) -> KnowledgeStore:
    """``store`` cut to the tasks in ``keep`` by building a new store from its rows."""
    rows = [
        (tid, store.arch_tuple(arch), value)
        for tid in keep
        for arch, value in store.performances(tid).items()
    ]
    return KnowledgeStore.build(store.space, [store.tasks[t] for t in keep], rows, store.stat_names)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_subset_equals_build_over_the_same_rows(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("subset")
    store = partial_random_store(make_space(3, 2, 2), n_tasks=4, coverage=0.4, seed=seed)
    keeps = [["task02", "task00"], ["task03"], ["task01", "task03", "task02", "task00"]]
    for keep in keeps:
        sub, ref = store.subset(keep), _rebuilt(store, keep)
        assert sub == ref
        assert sub.task_ids == ref.task_ids == tuple(sorted(keep))
        assert sub.arch_tuples == ref.arch_tuples
        for tid in keep:
            assert list(sub.performances(tid).items()) == list(ref.performances(tid).items())
        sub.persist(tmp / "sub.json")
        ref.persist(tmp / "ref.json")
        assert (tmp / "sub.json").read_bytes() == (tmp / "ref.json").read_bytes()


def test_subset_drops_designs_only_dropped_tasks_measured(space2x2):
    rows = [("a", (0, 0), 0.1), ("a", (1, 1), 0.4), ("b", (0, 1), 0.2), ("b", (1, 1), 0.3)]
    store = KnowledgeStore.build(space2x2, [TaskRecord("b"), TaskRecord("a")], rows)
    sub = store.subset(["b"])
    assert sub.arch_tuples == ((0, 1), (1, 1))
    assert sub.performances("b") == {0: 0.2, 1: 0.3}
    assert sub == _rebuilt(store, ["b"])


@pytest.mark.parametrize(
    "keep, message",
    [
        (["svhn", "mnist", "mnist"], "unknown tasks: ['mnist']"),
        ([], "subset needs at least one task"),
        (["svhn", "cifar10", "svhn"], "duplicate task id 'svhn'"),
    ],
)
def test_subset_rejects_bad_task_lists(store2x2, keep, message):
    with pytest.raises(StoreError) as info:
        store2x2.subset(keep)
    assert type(info.value) is StoreError
    assert str(info.value) == message


BAD_ROWS = {
    # each bad design equals (1, 0) or holds its entries, but is a new object
    "float-choice": (
        ("u", (1.0, 0), 2.0),
        DesignSpaceError,
        "dimension 'width': choice 1.0 out of range 0..1",
    ),
    "bool-choice": (
        ("u", (True, 0), 2.0),
        DesignSpaceError,
        "dimension 'width': choice True out of range 0..1",
    ),
    "list-design": (
        ("u", [1, 0], 2.0),
        DesignSpaceError,
        "design tuple must have 2 entries, got [1, 0]",
    ),
    "tuple-holding-list": (
        ("u", ([1], 0), 2.0),
        DesignSpaceError,
        "dimension 'width': choice [1] out of range 0..1",
    ),
    "duplicate-equal-design": (
        ("t", (1, 0), 2.0),
        StoreError,
        "duplicate measurement for task 't', design (1, 0)",
    ),
    "unknown-task": (
        ("x", (1.0, 0), 2.0),
        StoreError,
        "performance row references unknown task 'x'",
    ),
    "non-finite": (
        ("v", (1, 0), "high"),
        StoreError,
        "task 'v', design (1, 0): non-finite performance",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_build_rejects_bad_row_equal_to_a_valid_design(space2x2, case):
    bad_row, error, message = BAD_ROWS[case]
    first = (1, 0)
    rows = [("t", first, 1.0), ("u", first, 1.5), bad_row, ("t", (9, 9), math.nan)]
    with pytest.raises(error) as info:
        KnowledgeStore.build(space2x2, [TaskRecord(t) for t in "tuv"], rows)
    assert type(info.value) is error
    assert str(info.value) == message


def test_build_rejects_duplicate_of_the_same_design_object(space2x2):
    design = (0, 1)
    rows = [("t", design, 1.0), ("u", design, 1.0), ("t", design, 2.0)]
    with pytest.raises(StoreError) as info:
        KnowledgeStore.build(space2x2, [TaskRecord("t"), TaskRecord("u")], rows)
    assert str(info.value) == "duplicate measurement for task 't', design (0, 1)"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constructor_orders_shuffled_parts_as_build_does(seed):
    store = partial_random_store(make_space(3, 2, 2), n_tasks=4, coverage=0.6, seed=seed)
    rng = np.random.default_rng(seed)
    rows, cols = rng.permutation(len(store.tasks)), rng.permutation(store.arch_count)
    tids = [store.task_ids[i] for i in rows]
    perf = store.performance_matrix[:-1, :-1][rows][:, cols]
    tasks = {tid: store.tasks[tid] for tid in tids}
    made = KnowledgeStore(store.space, tasks, store.arch_ranks[cols], perf, store.stat_names)
    assert made == _rebuilt(store, tids) == store
    assert made.task_ids == store.task_ids and made.arch_tuples == store.arch_tuples
    assert made.performance_matrix.tobytes() == store.performance_matrix.tobytes()
    perf[...] = 0.0  # the store holds its own copy
    assert made.performance_matrix.tobytes() == store.performance_matrix.tobytes()
    assert not made.performance_matrix.flags.writeable


def test_load_and_subset_validate_each_design_once(tmp_path, monkeypatch):
    space = make_space(3, 3, 2)
    path = tmp_path / "store.json"
    full_random_store(space, n_tasks=4, seed=2).persist(path)
    checked = []
    validate = DesignSpace.validate

    def counting(self, design):
        checked.append(design)
        return validate(self, design)

    monkeypatch.setattr(DesignSpace, "validate", counting)
    store = load_store(path)
    store.subset(store.task_ids[1:])
    assert store.arch_count == space.size
    assert len(checked) <= space.size


# ----------------------------------------------------------------------- gains


def test_gain_between_neighbors():
    space = make_space(2, 2)
    rows = [("t", (0, 0), 0.80), ("t", (0, 1), 0.85)]
    graph = build_graph(KnowledgeStore.build(space, [TaskRecord("t")], rows), "t")
    assert move_gain(graph, (0, 0), (0, 1)) == pytest.approx(0.05)
    assert move_gain(graph, (0, 1), (0, 0)) == -move_gain(graph, (0, 0), (0, 1))


def test_gain_missing_endpoint_is_none(space2x2):
    rows = [
        ("t", (0, 0), 0.80),
        ("t", (0, 1), 0.85),
        ("t", (1, 1), 0.90),
    ]
    store = KnowledgeStore.build(space2x2, [TaskRecord("t")], rows)
    graph = build_graph(store, "t")
    assert store.arch_id_of((1, 0)) is None  # never measured, so it has no id at all
    assert move_gain(graph, (0, 1), (1, 1)) == pytest.approx(0.05)
    assert move_gain(graph, (0, 0), (1, 0)) is None
    assert move_gain(graph, (1, 0), (1, 1)) is None


def test_derive_gains_three_candidate_chain():
    space = make_space(3)
    rows = [("t", (0,), 0.1), ("t", (1,), 0.2), ("t", (2,), 0.4)]
    store = KnowledgeStore.build(space, [TaskRecord("t")], rows)
    gains = {(g.arch_from, g.arch_to): g.gain for g in store.derive_gains("t")}
    assert gains == {
        (0, 1): pytest.approx(0.1),
        (0, 2): pytest.approx(0.3),
        (1, 2): pytest.approx(0.2),
    }


def test_derive_gains_canonical_direction(store2x2):
    for g in store2x2.derive_gains("cifar10"):
        assert g.arch_from < g.arch_to
        assert g.task_id == "cifar10"


def test_derive_gains_needs_two_measurements(space2x2):
    store = KnowledgeStore.build(space2x2, [TaskRecord("t")], [("t", (0, 0), 1.0)])
    assert store.derive_gains("t") == []


def test_derive_gains_skips_unmeasured_neighbors(space2x2):
    rows = [("t", (0, 0), 0.1), ("t", (1, 1), 0.2)]  # diagonal: no shared edge
    store = KnowledgeStore.build(space2x2, [TaskRecord("t")], rows)
    assert store.derive_gains("t") == []


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 5), min_size=1, max_size=4),
    coverage=st.lists(st.sampled_from(["none", "one", "part", "all"]), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_derive_gains_equal_the_per_design_loop(sizes, coverage, seed):
    """Partial coverage, and tasks with no or one measured design, give the loop's records."""
    store = coverage_store(sizes, coverage, seed)
    for tid in store.task_ids:
        got, expected = store.derive_gains(tid), reference_derive_gains(store, tid)
        arch_from, arch_to, gains = store.edges(tid)
        assert arch_from.tolist() == [g.arch_from for g in expected]
        assert arch_to.tolist() == [g.arch_to for g in expected]
        assert gains.tobytes() == np.array([g.gain for g in expected], dtype=float).tobytes()
        assert [(g.task_id, g.arch_from, g.arch_to) for g in got] == [
            (g.task_id, g.arch_from, g.arch_to) for g in expected
        ]
        assert np.array([g.gain for g in got]).tobytes() == np.array(
            [g.gain for g in expected]
        ).tobytes()
        assert all(type(g.arch_from) is type(g.arch_to) is int and type(g.gain) is float for g in got)


def test_antisymmetry_is_exact_not_approximate():
    # Values chosen so the difference is not representable cleanly.
    space = make_space(2)
    rows = [("t", (0,), 0.1), ("t", (1,), 0.3)]
    graph = build_graph(KnowledgeStore.build(space, [TaskRecord("t")], rows), "t")
    forward = move_gain(graph, (0,), (1,))
    backward = move_gain(graph, (1,), (0,))
    assert forward == -backward  # bitwise, not approx


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_antisymmetry_holds_for_random_stores(seed):
    space = make_space(3, 2, 2)
    store = partial_random_store(space, n_tasks=2, coverage=0.7, seed=seed)
    for tid in store.task_ids:
        graph = build_graph(store, tid)
        for g in store.derive_gains(tid):
            a, b = store.arch_tuple(g.arch_from), store.arch_tuple(g.arch_to)
            assert move_gain(graph, b, a) == -g.gain
            assert move_gain(graph, a, b) == g.gain


def test_cycle_sums_vanish_around_squares():
    store = full_random_store(make_space(4, 4), n_tasks=3, seed=7)
    for tid in store.task_ids:
        graph = build_graph(store, tid)
        for w0 in range(3):
            for d0 in range(3):
                a, b = (w0, d0), (w0 + 1, d0)
                c, d = (w0 + 1, d0 + 1), (w0, d0 + 1)
                loop = (
                    move_gain(graph, a, b)
                    + move_gain(graph, b, c)
                    + move_gain(graph, c, d)
                    + move_gain(graph, d, a)
                )
                assert abs(loop) <= 1e-12


# ----------------------------------------------------------------- persistence


def put(parts: tuple, row: int | None, position: int, value: float) -> None:
    """Write ``value`` at ``position`` of the ranks (``row`` None) or of task ``row``'s perf row."""
    _, ranks, perf = parts
    (ranks if row is None else perf[row])[position] = value


def persisted_parts(store: KnowledgeStore, path) -> tuple[dict, list[int], list[list[float]]]:
    store.persist(path)
    return read_store_file(path)


def load_fault(parts: tuple, path) -> str:
    """The message of the ``StoreFormatError`` that loading ``parts`` from ``path`` raises."""
    write_store_file(path, *parts)
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert type(info.value) is StoreFormatError
    prefix = f"corrupt store file {path}: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


def body_fault(size: int, designs: int = 4, tasks: int = 2) -> str:
    """The message for a body of ``size`` bytes after a header of ``designs`` and ``tasks``."""
    expected = 8 * designs * (1 + tasks)
    return (
        f"{size} bytes follow the header, not {expected} "
        f"(8 x {designs} designs x (1 + {tasks} tasks))"
    )


def test_persist_load_round_trip(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    loaded = load_store(path)
    assert loaded == store2x2
    assert loaded.space == store2x2.space
    assert loaded.performance_of("svhn", (1, 0)) == 0.93
    # determinism: loading and re-persisting reproduces the bytes
    path2 = tmp_path / "again.json"
    loaded.persist(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "store.json"
    path.write_text("{truncated", encoding="utf-8")
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


def test_load_rejects_a_truncated_file(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(StoreFormatError, match="not a knowledge-store"):
        load_store(path)


def test_load_rejects_version_mismatch(store2x2, tmp_path):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["version"] = 99
    write_store_file(path, header, ranks, perf)
    with pytest.raises(StoreFormatError, match="version"):
        load_store(path)


def test_load_rejects_a_version_3_file(store2x2, tmp_path):
    """The version-3 layout (a JSON number or null per entry) has no reader."""
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    payload = {key: value for key, value in header.items() if key != "designs"}
    payload["version"] = 3
    payload["ranks"] = ranks
    payload["perf"] = perf
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"store version mismatch in {path}: file has 3, this build reads version 5"
    )


def test_load_rejects_mangled_payload(store2x2, tmp_path):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    del header["designs"]
    write_store_file(path, header, ranks, perf)
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


def test_persisted_store_holds_ranks_and_one_row_per_task(store2x2, tmp_path):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    assert header["version"] == 5
    assert header["designs"] == 4
    assert ranks == [0, 1, 2, 3]
    assert [task[0] for task in header["tasks"]] == ["cifar10", "svhn"]
    assert perf == [[0.71, 0.74, 0.77, 0.80], [0.90, 0.92, 0.93, 0.95]]
    body = path.read_bytes().partition(b"\n")[2]
    assert body[:32] == b"".join(bytes([rank]) + bytes(7) for rank in range(4))
    assert body[32:40] == bytes.fromhex("b81e85eb51b8e63f")  # 0.71 is 0x3fe6b851eb851eb8
    assert not {"archs", "ranks", "perf"} & set(header)


@pytest.mark.parametrize("arch_id", [-1, -4, True, False, 4, 1.0, "1", None])
def test_load_rejects_arch_ids_outside_the_arch_list(store2x2, tmp_path, arch_id):
    """A design is identified by its rank, an int64 below 4: anything else in its place is refused.

    An int is written as the last rank's bytes.  The ranks are bytes, so a
    value of another kind can only stand in the header as their count.
    """
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    if type(arch_id) is int:
        put(parts, None, -1, arch_id)
        message = f"rank {arch_id} out of range 0..3"
    else:
        parts[0]["designs"] = arch_id
        message = f"designs {arch_id!r} is not an int >= 0"
    assert load_fault(parts, path) == message


@pytest.mark.parametrize(
    "choice, shown", [(1.9, "1.9"), (1.0, "1.0"), (True, "True"), ("1", "'1'"), (None, "None")]
)
def test_load_rejects_choices_that_are_not_json_integers(store2x2, tmp_path, choice, shown):
    """Design (0, 1)'s rank written as a literal's text, padded to its 8 bytes.

    Parsing the literal would have read each as 1; the loader reads the 8
    bytes as a little-endian int64, far beyond the last rank, instead.
    """
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    assert ranks == [0, 1, 2, 3]
    assert repr(choice) == shown
    text = shown.encode().ljust(8)
    data = struct.pack("<4q", *ranks)
    data = data[:8] + text + data[16:]
    rank = int.from_bytes(text, "little", signed=True)
    assert load_fault((header, data, perf), path) == f"rank {rank} out of range 0..3"


def _first_rank(parts: tuple, bad: object) -> None:
    put(parts, None, 0, bad)


def _last_rank(parts: tuple, bad: object) -> None:
    put(parts, None, -1, bad)


def _longer_first_row(parts: tuple, bad: object) -> None:
    parts[2][0].append(bad)  # a value for a fifth design, which no rank names


@pytest.mark.parametrize(
    "edit, bad, message",
    [
        (_last_rank, 4, "rank 4 out of range 0..3"),
        (_last_rank, -1, "rank -1 out of range 0..3"),
        (_longer_first_row, 0.5, body_fault(104)),
        (_first_rank, -1, "rank -1 out of range 0..3"),
        (_first_rank, -(2**63), f"rank {-(2**63)} out of range 0..3"),
    ],
    ids=["choice-2", "choice-minus-1", "arch-id-4", "first-rank-minus-1", "first-rank-int64-min"],
)
def test_load_names_an_int_out_of_range(store2x2, tmp_path, edit, bad, message):
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    edit(parts, bad)
    assert load_fault(parts, path) == message


@pytest.mark.parametrize("extra", [[0], [1], [3]])
def test_load_rejects_archs_no_measurement_uses(store2x2, tmp_path, extra):
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    for row in range(len(parts[2])):
        for column in extra:
            put(parts, row, column, math.nan)  # the design stays listed, but no task measures it
    assert load_fault(parts, path) == "4 archs listed, 3 measured"


def test_load_rejects_a_design_listed_twice(store2x2, tmp_path):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["designs"] = 5
    ranks.append(3)  # a second (1, 1), which svhn measures in place of the first
    perf[0].append(math.nan)
    perf[1] = [*perf[1][:3], math.nan, 0.95]
    assert load_fault((header, ranks, perf), path) == "design (1, 1) is listed twice in archs"


@pytest.mark.parametrize("ranks", [{"width": []}, 5, None, "0123"], ids=repr)
def test_load_rejects_ranks_that_are_not_a_list(store2x2, tmp_path, ranks):
    """The ranks are 32 bytes of int64s: these stand in their place as JSON text, or two bytes."""
    path = tmp_path / "store.json"
    header, _, perf = persisted_parts(store2x2, path)
    data = bytes.fromhex(ranks) if ranks == "0123" else json.dumps(ranks).encode()
    assert load_fault((header, data, perf), path) == body_fault(len(data) + 64)


@pytest.mark.parametrize(
    "archs", [[[0, 0, 1, 1]], [[0, 0, 1, 1], [0, 1, 0]], [[0, 0, 1, 1], 5], {"width": []}], ids=repr
)
def test_load_rejects_archs_that_are_not_one_list_per_dimension(store2x2, tmp_path, archs):
    """The body must hold one row of one value per rank for each task: these do not.

    A list is written as its float64s; anything else as its JSON text.
    """
    path = tmp_path / "store.json"
    header, ranks, _ = persisted_parts(store2x2, path)
    rows = archs if type(archs) is list else [archs]
    perf = [row if type(row) is list else json.dumps(row).encode() for row in rows]
    size = 8 * len(ranks) + sum(8 * len(row) if type(row) is list else len(row) for row in perf)
    assert load_fault((header, ranks, perf), path) == body_fault(size)


@pytest.mark.parametrize(
    "field, bad, shown",
    [
        ("performance", "0.5", "'0.5'"),
        ("performance", True, "True"),
        ("performance", None, "None"),
        ("statistic", "1.5", "'1.5'"),
        ("statistic", False, "False"),
    ],
)
def test_load_rejects_numbers_that_are_not_json_numbers(store2x2, tmp_path, field, bad, shown):
    """A statistic is a JSON number; a performance row is 8 bytes a value, not JSON text."""
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    if field == "statistic":
        parts[0]["tasks"][1][1][0] = bad
        message = f"task 'svhn': {field} {shown} is not a number"
    else:
        parts[2][1] = json.dumps(bad).encode()  # svhn's row in place of its 32 bytes
        message = body_fault(64 + len(parts[2][1]))
    assert load_fault(parts, path) == message


@pytest.mark.parametrize(
    "bad, message",
    [
        ('"0.5"', body_fault(93)),
        ("true", body_fault(92)),
        ("false", body_fault(93)),
        ("[0.5]", body_fault(93)),
        ("NaN", body_fault(91)),
        (-math.inf, "task 'svhn', design (1, 0): non-finite performance"),
    ],
    ids=["string", "true", "false", "list", "nan", "minus-infinity"],
)
def test_load_rejects_faults_in_a_row_that_holds_nulls(store2x2, tmp_path, bad, message):
    """A row with unmeasured (NaN) entries is checked as a full row is.

    svhn's row: two NaN, then the fault at (1, 0): a JSON literal's text in
    place of the value's 8 bytes, or the bits of -infinity.
    """
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    values = parts[2][1]
    values[:2] = [math.nan, math.nan]
    if type(bad) is str:
        data = struct.pack("<4d", *values)
        parts[2][1] = data[:16] + bad.encode() + data[24:]
    else:
        values[2] = bad
    assert load_fault(parts, path) == message


@pytest.mark.parametrize("candidates", ["24", ["2", 4], None])
def test_load_rejects_candidates_that_are_not_a_list_of_strings(store2x2, tmp_path, candidates):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    assert header["space"][1] == ["depth", ["2", "4"]]
    header["space"][1][1] = candidates  # tuple("24") would have read ("2", "4")
    write_store_file(path, header, ranks, perf)
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"corrupt store file {path}: dimension 'depth': "
        f"candidates {candidates!r} are not a list of strings"
    )


@pytest.mark.parametrize("name", [None, 5, "", True])
def test_load_rejects_dimension_names_that_are_not_nonempty_strings(store2x2, tmp_path, name):
    parts = persisted_parts(store2x2, tmp_path / "store.json")
    parts[0]["space"][0][0] = name
    assert load_fault(parts, tmp_path / "store.json") == (
        f"dimension name must be a non-empty string, got {name!r}"
    )


@pytest.mark.parametrize(
    "edit, size",
    [
        (lambda row: row[:16] + b" " + row[16:], 97),
        (lambda row: row[:16] + "é".encode() + row[17:], 97),  # two bytes in place of one
        (lambda row: row[:-4], 92),  # half a value short
        (lambda row: row + bytes(4), 100),  # half a value long
        (lambda row: row[:-1], 95),
        (lambda row: row + bytes(8), 104),
    ],
    ids=["space", "non-ascii", "odd-short", "odd-long", "a-byte-short", "a-value-long"],
)
def test_load_names_a_row_that_is_no_hex_of_one_value_per_rank(store2x2, tmp_path, edit, size):
    """svhn's row, edited: a byte or half a value too few or too many no longer fits the header."""
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    parts[2][1] = edit(struct.pack("<4d", *parts[2][1]))
    assert load_fault(parts, path) == body_fault(size)


@pytest.mark.parametrize(
    "edit, message",
    [
        # rank 1's low byte written as the letter x, 0x78
        (lambda ranks: ranks[:8] + b"x" + ranks[9:], "rank 120 out of range 0..3"),
        (lambda ranks: ranks + b"1", body_fault(97)),
        (lambda ranks: ranks[:-1], body_fault(95)),
        (lambda ranks: ranks + bytes(4), body_fault(100)),
        # a fifth rank, 0, which no row holds a value for
        (lambda ranks: ranks + bytes(8), body_fault(104)),
    ],
    ids=["letter-x", "odd", "a-byte-short", "half-a-rank-long", "a-rank-long"],
)
def test_load_names_ranks_that_are_no_hex_of_whole_int64s(store2x2, tmp_path, edit, message):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    ranks = edit(struct.pack("<4q", *ranks))
    assert load_fault((header, ranks, perf), path) == message


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["plus", "minus"])
@pytest.mark.parametrize(
    "row, column, task, design", [(0, 0, "cifar10", (0, 0)), (1, 2, "svhn", (1, 0))]
)
def test_load_names_an_infinite_performance(store2x2, tmp_path, value, row, column, task, design):
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    put(parts, row, column, value)
    assert load_fault(parts, path) == f"task {task!r}, design {design!r}: non-finite performance"


@pytest.mark.parametrize("second", [slice(2, None), slice(0, 0)])
def test_load_rejects_a_task_listed_twice_in_perf(store2x2, tmp_path, second):
    """A second row for cifar10, which would merge into one task, is one row too many."""
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    row = parts[2][0]
    extra = [math.nan] * len(row)
    extra[second] = row[second]
    row[second] = [math.nan] * len(row[second])
    parts[2].append(extra)
    assert load_fault(parts, path) == body_fault(128)


@pytest.mark.parametrize(
    "entry", [[5, [], []], [None, [], []], ["ghost", [], []], ["ghost", [0], [0.5]]]
)
def test_load_rejects_a_perf_entry_that_names_no_known_task(store2x2, tmp_path, entry):
    """A row for a task that ``tasks`` does not list is one row too many."""
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    _, ids, values = entry
    row = [math.nan] * len(parts[1])
    for arch, value in zip(ids, values):
        row[arch] = value
    parts[2].append(row)
    assert load_fault(parts, path) == body_fault(128)


def test_load_keeps_a_known_task_with_no_measurements(store2x2, tmp_path):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["tasks"].append(["idle", header["tasks"][0][1], "acc", "max", "", ""])
    perf.append([math.nan] * 4)
    write_store_file(path, header, ranks, perf)
    store = load_store(path)
    assert "idle" in store.tasks and store.performances("idle") == {}


# (ranks when the row is None, else that task's perf row; position; new value)
FAULTY_ROWS = {
    # (0, 0) is listed twice: the last rank 3 becomes 0
    "duplicate": ((None, 3, 0), "design (0, 0) is listed twice in archs"),
    # the same, with the ranks still in order: rank 1 becomes 0
    "ordered-duplicate": ((None, 1, 0), "design (0, 0) is listed twice in archs"),
    # svhn's first value, written as the bits of +infinity
    "non-finite": ((1, 0, math.inf), "task 'svhn', design (0, 0): non-finite performance"),
    # cifar10's first value: its row comes first
    "first-value-non-finite": (
        (0, 0, math.inf), "task 'cifar10', design (0, 0): non-finite performance"
    ),
}


@pytest.mark.parametrize(
    "faults",
    [
        ["duplicate"],
        ["ordered-duplicate"],
        ["non-finite"],
        ["duplicate", "non-finite"],  # ranks are checked before the rows' values
        ["duplicate", "first-value-non-finite"],
    ],
    ids="+".join,
)
def test_load_reports_the_first_faulty_row(store2x2, tmp_path, faults):
    """Faults are given in check order (ranks, then each row in task order); the first is reported."""
    path = tmp_path / "store.json"
    parts = persisted_parts(store2x2, path)
    for fault in faults:
        (row, position, value), _ = FAULTY_ROWS[fault]
        put(parts, row, position, value)
    assert load_fault(parts, path) == FAULTY_ROWS[faults[0]][1]


@pytest.mark.parametrize("names", ["ab", [1, 2], ["n", None], ["n", "n"]], ids=repr)
def test_load_rejects_stat_names_that_are_not_distinct_strings(store2x2, tmp_path, names):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["stat_names"] = names  # each has two entries, as each task has two statistics
    write_store_file(path, header, ranks, perf)
    shown = re.escape(repr(names))
    with pytest.raises(StoreFormatError, match=f"^corrupt store file .*: stat_names {shown}"):
        load_store(path)


# Bit patterns the decoder must keep: signed zero, the least subnormal, the least
# normal, the greatest finite double and a value with no exact binary form.
EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1)
# Integer statistics up to the 64-bit limit: each loads as float() of the integer.
EDGE_STATS = ((2**63 - 1, -(2**63), 2**53 + 1), (0, -1, 12345678901234567))


def test_load_decodes_edge_values_as_json_does(space2x2, tmp_path):
    """Statistics decode as ``json`` and ``float()`` read them; performances as ``struct`` does."""
    tasks = [TaskRecord(f"t{i}", stats=stats) for i, stats in enumerate(EDGE_STATS)]
    values = [*EDGE_FLOATS, -5e-324, -1.7976931348623157e308, -0.1]
    designs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    rows = [(f"t{i % 2}", designs[i // 2], v) for i, v in enumerate(values)]
    store = KnowledgeStore.build(space2x2, tasks, rows, ("a", "b", "c"))
    path = tmp_path / "store.json"
    store.persist(path)
    # the reference decode: the standard json module, each statistic read by float()
    parts = read_store_file(path)
    header = parts[0]
    ref_tasks = [TaskRecord(t, tuple(map(float, s)), *rest) for t, s, *rest in header["tasks"]]
    ref_rows = file_rows(space2x2, parts)
    reference = KnowledgeStore.build(space2x2, ref_tasks, ref_rows, header["stat_names"])
    loaded = load_store(path)
    assert loaded.performance_matrix.tobytes() == store.performance_matrix.tobytes()
    assert loaded.performance_matrix.tobytes() == reference.performance_matrix.tobytes()
    loaded.persist(tmp_path / "loaded.json")
    reference.persist(tmp_path / "reference.json")
    assert (tmp_path / "loaded.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    for tid, stats in zip(loaded.task_ids, EDGE_STATS):
        assert [type(x) for x in loaded.stats_vector(tid)] == [float] * len(stats)
        assert loaded.stats_vector(tid) == tuple(map(float, stats))


def test_load_falls_back_to_json_for_a_lone_surrogate(space2x2, tmp_path):
    rows = [("t", (0, 0), 0.5), ("t", (1, 1), 0.25)]
    store = KnowledgeStore.build(space2x2, [TaskRecord("t", metric="acc\ud800")], rows)
    path = tmp_path / "store.json"
    store.persist(path)  # written as the escape \ud800, which orjson refuses
    loaded = load_store(path)
    assert loaded.tasks["t"].metric == "acc\ud800"
    assert loaded == store


def test_load_rejects_invalid_utf8(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    path.write_bytes(path.read_bytes().replace(b'"cifar10"', b'"cifar\xff10"'))
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


@pytest.mark.parametrize("where", ["arch id", "choice"])
def test_load_rejects_integers_beyond_64_bits(store2x2, tmp_path, where):
    """A rank beyond 64 bits, 11 bytes in place of the last design's 8 or of the first's."""
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    huge = (10**25).to_bytes(11, "little")
    data = struct.pack("<4q", *ranks)
    ranks = data[:-8] + huge if where == "arch id" else huge + data[8:]
    assert load_fault((header, ranks, perf), path) == body_fault(99)


def file_rows(space: DesignSpace, parts: tuple) -> list[tuple[str, tuple, float]]:
    """Every ``(task id, design, performance)`` a store file records, in file order."""
    header, ranks, perf = parts
    designs = [space.tuple_at(rank) for rank in ranks]
    return [
        (task[0], design, value)
        for task, row in zip(header["tasks"], perf)
        for design, value in zip(designs, row)
        if not math.isnan(value)
    ]


def shuffled_parts(parts: tuple, rng: random.Random) -> tuple:
    """The file written by hand: ranks permuted with each row's columns, tasks with their rows."""
    header, ranks, perf = parts
    order = rng.sample(range(len(ranks)), len(ranks))  # new position j holds old column order[j]
    rows = [[row[old] for old in order] for row in perf]
    tasks = rng.sample(range(len(rows)), len(rows))
    return (
        {**header, "tasks": [header["tasks"][i] for i in tasks]},
        [ranks[old] for old in order],
        [rows[i] for i in tasks],
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sizes=st.sampled_from([(2,), (3, 3), (2, 3, 2), (4, 2, 3)]),
    n_tasks=st.integers(min_value=1, max_value=4),
    coverage=st.floats(min_value=0.1, max_value=1.0),
    shuffle=st.booleans(),
)
def test_load_equals_build_over_the_files_rows(
    seed, sizes, n_tasks, coverage, shuffle, tmp_path_factory
):
    space = make_space(*sizes)
    store = partial_random_store(space, n_tasks=n_tasks, coverage=coverage, seed=seed)
    tmp = tmp_path_factory.mktemp("columns")
    path = tmp / "store.json"
    store.persist(path)
    parts = read_store_file(path)
    if shuffle:
        parts = shuffled_parts(parts, random.Random(seed))
        write_store_file(path, *parts)
    rows = file_rows(space, parts)
    header = parts[0]
    tasks = [TaskRecord(tid, tuple(stats), *rest) for tid, stats, *rest in header["tasks"]]
    built = KnowledgeStore.build(space, tasks, rows, header["stat_names"])
    loaded = load_store(path)
    assert loaded == built == store
    assert loaded.performance_matrix.tobytes() == built.performance_matrix.tobytes()
    loaded.persist(tmp / "loaded.json")
    built.persist(tmp / "built.json")
    assert (tmp / "loaded.json").read_bytes() == (tmp / "built.json").read_bytes()
    if not shuffle:
        assert (tmp / "loaded.json").read_bytes() == path.read_bytes()


def _layout_store(kind: str) -> KnowledgeStore:
    """A full store, a partial one, or one built from unsorted ranks with NaN of any bits."""
    space = make_space(5, 4, 3)
    if kind == "full":
        return full_random_store(space, n_tasks=3, seed=5)
    if kind == "partial":
        return partial_random_store(space, n_tasks=3, coverage=0.3, seed=5)
    rng = np.random.default_rng(5)
    ranks = rng.permutation(space.size)[:40]
    perf = rng.normal(size=(3, len(ranks)))
    perf[1:, ::3] = np.uint64(0xFFF0_0000_0000_0001).view(np.float64)  # negative, signalling
    perf[0, 1::3] = -np.nan
    tasks = {t: TaskRecord(t) for t in ("c", "a", "b")}
    return KnowledgeStore(space, tasks, ranks, perf)


@pytest.mark.parametrize("kind", ["full", "partial", "unsorted"])
def test_persisted_file_is_the_header_line_then_the_arrays(kind, tmp_path):
    """One JSON line, then ``designs`` int64 ranks and one float64 row per task; one NaN."""
    store = _layout_store(kind)
    path = tmp_path / "store.json"
    store.persist(path)
    data = path.read_bytes()
    line, newline, body = data.partition(b"\n")
    designs, tasks = store.arch_count, len(store.task_ids)
    assert newline and json.loads(line) == store.to_payload()
    assert len(data) == len(line) + 1 + 8 * designs * (1 + tasks)
    assert np.frombuffer(body, "<i8", designs).tolist() == store.arch_ranks.tolist()
    values = np.frombuffer(body, "<f8", offset=8 * designs).reshape(tasks, designs)
    holes = np.isnan(values)
    assert holes.any() == (kind != "full")
    assert (values.view("<u8")[holes] == _bits(np.nan)).all()
    matrix = store.performance_matrix[:-1, :-1]
    assert (np.isnan(matrix) == holes).all() and (values[~holes] == matrix[~holes]).all()
    load_store(path).persist(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == data


def test_load_store_allocates_the_file_and_the_matrix_alone(tmp_path):
    """Loading a 4 x 15,625 store holds the file's bytes and one matrix, no text of either."""
    space = make_space(5, 5, 5, 5, 5, 5)
    tids = [f"task{k}" for k in range(4)]
    perf = np.random.default_rng(0).normal(size=(len(tids), space.size))
    store = KnowledgeStore(space, {t: TaskRecord(t) for t in tids}, np.arange(space.size), perf)
    path = tmp_path / "store.json"
    store.persist(path)
    load_store(path)  # the first call fills lazy caches that are not the load's
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded == store
    assert peak < 2 * 1024 * 1024  # the file and the matrix are 0.6 MB each


def test_task_record_validation():
    with pytest.raises(StoreError):
        TaskRecord("")
    with pytest.raises(StoreError):
        TaskRecord("t", direction="sideways")
    for task_id in (("t",), ["t"], 5, None):
        with pytest.raises(StoreError, match="non-empty string"):
            TaskRecord(task_id)


@pytest.mark.parametrize("field", ["metric", "dataset_id", "task_type"])
@pytest.mark.parametrize("bad", [5, None, [1]], ids=repr)
def test_task_record_rejects_fields_that_are_not_strings(field, bad):
    with pytest.raises(StoreError) as info:
        TaskRecord("t", **{field: bad})
    assert str(info.value) == f"task 't': {field} {bad!r} is not a string"


NOT_FINITE_NUMBERS = {
    "bool": (True, "is not a number"),
    "string": ("1.5", "is not a number"),
    "null": (None, "is not a number"),
    "list": ([1.0], "is not a number"),
    "nan": (math.nan, "is not finite"),
    "inf": (-math.inf, "is not finite"),
    "huge-int": (10**400, "is not finite"),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE_NUMBERS))
def test_task_record_rejects_statistics_that_are_not_finite_numbers(case):
    bad, reason = NOT_FINITE_NUMBERS[case]
    with pytest.raises(StoreError) as info:
        TaskRecord("t", stats=(1.0, bad))
    assert str(info.value) == f"task 't': statistic {bad!r} {reason}"


def test_task_record_holds_statistics_as_floats(space2x2, tmp_path):
    record = TaskRecord("t", stats=(2**63 - 1, 3, np.float64(0.5)))
    assert record.stats == (9.223372036854776e18, 3.0, 0.5)
    assert [type(x) for x in record.stats] == [float] * 3
    store = KnowledgeStore.build(space2x2, [record], [("t", (0, 0), 1.0)], ("a", "b", "c"))
    store.persist(tmp_path / "store.json")
    assert load_store(tmp_path / "store.json") == store


@pytest.mark.parametrize("names", [("n", "n"), ("n", 1), ("n", None)], ids=repr)
def test_build_rejects_stat_names_that_are_not_distinct_strings(space2x2, names):
    tasks = [TaskRecord("t", stats=(1.0, 2.0))]
    with pytest.raises(StoreError) as info:
        KnowledgeStore.build(space2x2, tasks, [("t", (0, 0), 1.0)], names)
    assert str(info.value) == f"stat_names {names!r} are not distinct strings"


@pytest.mark.parametrize("field, index", [("metric", 2), ("dataset_id", 4), ("task_type", 5)])
@pytest.mark.parametrize("bad", [5, None, [1]], ids=repr)
def test_load_rejects_task_fields_that_are_not_strings(store2x2, tmp_path, field, index, bad):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["tasks"][1][index] = bad
    write_store_file(path, header, ranks, perf)
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"corrupt store file {path}: task 'svhn': {field} {bad!r} is not a string"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=repr)
def test_load_rejects_statistics_that_are_not_finite(store2x2, tmp_path, bad):
    path = tmp_path / "store.json"
    header, ranks, perf = persisted_parts(store2x2, path)
    header["tasks"][1][1][0] = bad  # written as NaN or Infinity, which only json decodes
    write_store_file(path, header, ranks, perf)
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"corrupt store file {path}: task 'svhn': statistic {bad!r} is not finite"
    )


def _arrays(value: object) -> int:
    """The JSON arrays in a decoded value, nested ones included."""
    if isinstance(value, dict):
        return sum(map(_arrays, value.values()))
    if isinstance(value, list):
        return 1 + sum(map(_arrays, value))
    return 0


def test_persisted_store_holds_no_list_per_design(tmp_path):
    dims, tasks = 3, 5
    path = tmp_path / "store.json"
    full_random_store(make_space(*[5] * dims), n_tasks=tasks, seed=4).persist(path)
    header = read_store_file(path)[0]
    # space: 1 + 2 per dimension; stat_names: 1; tasks: 1 + 2 per task.
    # None grows with the 125 designs, whose ranks and values follow the header as bytes.
    assert _arrays(header) <= 2 * dims + 3 * tasks + 5


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# Finite values whose bits a decimal or a sloppy decoder could lose, as bit patterns.
EDGE_BITS = [_bits(x) for x in (*EDGE_FLOATS, -5e-324, -1.7976931348623157e308)]
# Any NaN: either sign, a quiet or a signalling payload.
NAN_BITS = st.builds(
    lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
    st.integers(0, 1),
    st.integers(1, 2**52 - 1),
)
FINITE_BITS = st.floats(allow_nan=False, allow_infinity=False).map(_bits)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.sampled_from([(2,), (3, 3), (2, 3, 2)]),
    data=st.data(),
)
def test_round_trip_keeps_the_bits_of_every_value(sizes, data, tmp_path_factory):
    """Persist then load keeps each finite value's bits and each NaN hole; every NaN is one NaN.

    The matrix holds NaN holes of any payload and sign, signed zeros, subnormals
    and the greatest doubles.  A design no task measured gets a value in the
    first task's row, as a loadable file must.
    """
    space = make_space(*sizes)
    n_tasks = data.draw(st.integers(1, 3), label="tasks")
    ranks = data.draw(
        st.lists(st.integers(0, space.size - 1), min_size=1, unique=True), label="ranks"
    )
    cell = st.one_of(FINITE_BITS, st.sampled_from(EDGE_BITS), NAN_BITS)
    cells = data.draw(
        st.lists(cell, min_size=n_tasks * len(ranks), max_size=n_tasks * len(ranks)), label="cells"
    )
    bits = np.array(cells, dtype=np.uint64).reshape(n_tasks, len(ranks))
    perf = bits.view(np.float64)
    unmeasured = np.isnan(perf).all(axis=0)
    bits[0, unmeasured] = _bits(0.5)
    tasks = {f"t{i}": TaskRecord(f"t{i}") for i in range(n_tasks)}
    store = KnowledgeStore(space, tasks, np.array(ranks), perf)
    # the same values, with every NaN written as np.nan
    plain = KnowledgeStore(space, tasks, np.array(ranks), np.where(np.isnan(perf), np.nan, perf))

    tmp = tmp_path_factory.mktemp("bits")
    store.persist(tmp / "store.json")
    plain.persist(tmp / "plain.json")
    assert (tmp / "store.json").read_bytes() == (tmp / "plain.json").read_bytes()
    assert store == plain

    loaded = load_store(tmp / "store.json")
    holes = np.isnan(store.performance_matrix)
    assert (np.isnan(loaded.performance_matrix) == holes).all()
    as_bits = loaded.performance_matrix.view(np.uint64)
    assert (as_bits[~holes] == store.performance_matrix.view(np.uint64)[~holes]).all()
    assert (as_bits[holes] == _bits(np.nan)).all()
    assert loaded.arch_ranks.tolist() == sorted(ranks)
    loaded.persist(tmp / "again.json")
    assert (tmp / "again.json").read_bytes() == (tmp / "store.json").read_bytes()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_preserves_everything(seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("roundtrip")
    store = partial_random_store(make_space(3, 3), n_tasks=3, coverage=0.8, seed=seed)
    path = tmp / f"s{seed}.json"
    store.persist(path)
    loaded = load_store(path)
    assert loaded == store
    for tid in store.task_ids:
        assert loaded.performances(tid) == store.performances(tid)
        assert loaded.stats_vector(tid) == store.stats_vector(tid)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_designs_decode_from_ranks(sizes, seed, tmp_path_factory):
    """Built, loaded and cut stores find each design by its rank, and read it from the matrix."""
    space = make_space(*sizes)
    built = partial_random_store(space, n_tasks=3, coverage=0.3, seed=seed)
    path = tmp_path_factory.mktemp("ranks") / "store.json"
    built.persist(path)
    for store in (built, load_store(path), built.subset(["task02", "task00"])):
        designs = store.arch_tuples
        assert designs == tuple(map(store.arch_tuple, range(store.arch_count)))
        for i, design in enumerate(designs):
            assert design == space.tuple_at(int(store.arch_ranks[i]))
            assert store.arch_id_of(design) == i
            for row, tid in enumerate(store.task_ids):
                value = store.performance_matrix[row, i]
                assert store.performance_of(tid, design) == (None if math.isnan(value) else value)
        for design in set(all_designs(space)) - set(designs):
            assert store.arch_id_of(design) is None
            assert all(store.performance_of(tid, design) is None for tid in store.task_ids)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    n_tasks=st.integers(min_value=1, max_value=3),
    coverage=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_partial_stores_round_trip_through_the_file(
    sizes, n_tasks, coverage, seed, tmp_path_factory
):
    """Built, loaded and cut stores with a task that measures nothing reload as they were.

    Each store is reloaded from its own file and from a copy whose ranks and
    row columns, and whose tasks and rows, are shuffled.
    """
    space = make_space(*sizes)
    base = partial_random_store(space, n_tasks=n_tasks, coverage=coverage, seed=seed)
    rows = [
        (tid, base.arch_tuple(arch), value)
        for tid in base.task_ids
        for arch, value in base.performances(tid).items()
    ]
    tasks = [*base.tasks.values(), TaskRecord("idle", stats=(0.0, 1.0, 2.0))]
    built = KnowledgeStore.build(space, tasks, rows, base.stat_names)
    tmp = tmp_path_factory.mktemp("files")
    built.persist(tmp / "built.json")
    loaded = load_store(tmp / "built.json")
    cut = ["idle", base.task_ids[-1]]
    for name, store in {
        "built": built, "loaded": loaded, "cut": built.subset(cut), "loaded-cut": loaded.subset(cut)
    }.items():
        path, shuffled = tmp / f"{name}.json", tmp / f"{name}-shuffled.json"
        store.persist(path)
        parts = read_store_file(path)
        nan_row = struct.pack(f"<{store.arch_count}d", *[math.nan] * store.arch_count)
        assert nan_row in [struct.pack(f"<{len(row)}d", *row) for row in parts[2]]  # idle's row
        write_store_file(shuffled, *shuffled_parts(parts, random.Random(seed)))
        for again in (load_store(path), load_store(shuffled)):
            assert again == store
            assert again.performance_matrix.tobytes() == store.performance_matrix.tobytes()
            assert again.arch_ranks.tobytes() == store.arch_ranks.tobytes()
    assert loaded == built


def test_valid_files_load_without_a_scan(tmp_path, monkeypatch):
    """A valid full file and a valid file with NaN holes take the bulk checks alone."""
    space = make_space(5, 5, 4)
    full, partial = tmp_path / "full.json", tmp_path / "partial.json"
    full_random_store(space, n_tasks=3, seed=1).persist(full)
    partial_random_store(space, n_tasks=3, coverage=0.3, seed=1).persist(partial)
    nan = struct.pack("<d", math.nan)
    assert nan not in full.read_bytes()
    assert nan in partial.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a valid file took a slow path")

    monkeypatch.setattr(store_module, "_first_repeat", refuse)
    assert load_store(full).arch_count == space.size
    assert 0 < load_store(partial).arch_count < space.size


def _retained(make):
    """``make()`` and the bytes of what it allocated that are still held once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_stores_hold_no_object_per_design(tmp_path):
    """A store of 3,125 designs holds its matrix and ranks, no tuple or index entry per design."""
    space = make_space(5, 5, 5, 5, 5)
    suite = generate_landscapes(space, 2, CorrelationSpec(mix=(1.0, 0.0)), seed=0)
    path = tmp_path / "store.json"
    suite.full_store().persist(path)
    partial = partial_random_store(space, n_tasks=3, coverage=0.5, seed=0)
    makers = {
        "full_store": suite.full_store,
        "load_store": lambda: load_store(path),
        "subset": lambda: partial.subset(["task00", "task02"]),
    }
    for name, make in makers.items():
        make()  # first calls fill lazy caches that are not the store's
        store, retained = _retained(make)
        assert len(store.task_ids) == (2 if name == "subset" else 3)
        assert store.arch_count > space.size // 2
        bound = store.performance_matrix.nbytes + store._rank_keys.nbytes + 64 * 1024
        assert retained <= bound, name


def test_performances_at_copies_only_the_cells_it_reads():
    """Reading 3 tasks at 25 designs of a 4 x 15,625 store allocates no whole matrix row."""
    space = make_space(5, 5, 5, 5, 5, 5)
    tids = [f"task{k}" for k in range(4)]
    perf = np.random.default_rng(0).normal(size=(len(tids), space.size))
    store = KnowledgeStore(space, {t: TaskRecord(t) for t in tids}, np.arange(space.size), perf)
    ranks = np.random.default_rng(1).choice(space.size, 25, replace=False)
    tracemalloc.start()
    try:
        at = store.performances_at(("task3", "task0", "task2"), ranks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert at.tolist() == perf[[3, 0, 2]][:, ranks].tolist()
    assert peak < 16 * 1024  # one matrix row is 125 KB


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_performances_at_reads_every_record_and_nan_elsewhere(seed):
    space = make_space(3, 2, 2)
    store = partial_random_store(space, n_tasks=3, coverage=0.5, seed=seed).subset(
        ["task00", "task02"]
    )
    assert store.arch_count < space.size  # the subset lacks some designs
    designs = all_designs(space)
    # every rank, in shuffled order and with repeats
    ranks = np.random.default_rng(seed).permutation(np.repeat(np.arange(space.size), 2))
    # a list (as shared_edge_gains passes) and a tuple, in two orders, each with an unknown task
    for tasks in (["task02", "ghost", "task00"], ("ghost", "task00", "task02")):
        at = store.performances_at(tasks, ranks)
        assert at.shape == (3, len(ranks))
        for j, tid in enumerate(tasks):
            for i, rank in enumerate(ranks.tolist()):
                design = designs[rank]
                value = store.performance_of(tid, design) if tid in store.tasks else None
                if value is None:
                    assert math.isnan(at[j, i])
                else:
                    assert at[j, i] == value
        assert store.performances_at(tasks, np.array([], dtype=np.intp)).shape == (3, 0)
    assert store.performances_at([], ranks).shape == (0, len(ranks))
    assert store.performance_matrix.shape == (2 + 1, store.arch_count + 1)
    assert store.arch_ranks.tolist() == [space.index_of(d) for d in store.arch_tuples]
