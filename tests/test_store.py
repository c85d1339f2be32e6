"""Knowledge-store ingestion, canonicalization, derived gains, persistence."""

from __future__ import annotations

import gc
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    coverage_store,
    full_random_store,
    make_space,
    move_gain,
    partial_random_store,
)
from mdesign.graph import build_graph
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


def test_arch_ids_follow_sorted_tuple_order(store2x2):
    assert store2x2.arch_tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert store2x2.arch_id_of((1, 0)) == 2
    assert store2x2.arch_id_of((9, 9)) is None


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
        assert sub.to_payload() == ref.to_payload()
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
    assert sub.to_payload() == _rebuilt(store, ["b"]).to_payload()


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


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "store.json"
    path.write_text(json.dumps({"hello": 1}), encoding="utf-8")
    with pytest.raises(StoreFormatError, match="not a knowledge-store"):
        load_store(path)


def test_load_rejects_version_mismatch(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError, match="version"):
        load_store(path)


def test_load_rejects_mangled_payload(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["archs"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


@pytest.mark.parametrize("arch_id", [-1, -4, True, False, 4, 1.0, "1", None])
def test_load_rejects_arch_ids_outside_the_arch_list(store2x2, tmp_path, arch_id):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["perf"][0][1][-1][0] = arch_id  # the last design's id on the first task
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError, match="corrupt"):
        load_store(path)


@pytest.mark.parametrize(
    "choice, shown", [(1.9, "1.9"), (1.0, "1.0"), (True, "True"), ("1", "'1'"), (None, "None")]
)
def test_load_rejects_choices_that_are_not_json_integers(store2x2, tmp_path, choice, shown):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["archs"][-1] == [1, 1]
    payload["archs"][-1][-1] = choice  # int() would have read each as the design (1, 1)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert type(info.value) is StoreFormatError
    assert str(info.value) == (
        f"corrupt store file {path}: dimension 'depth': choice {shown} out of range 0..1"
    )


@pytest.mark.parametrize("extra", [["x", 0], [1, 1.9], [1, 1]])
def test_load_rejects_archs_no_measurement_uses(store2x2, tmp_path, extra):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["archs"].append(extra)  # unreferenced: malformed, or a second copy of (1, 1)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == f"corrupt store file {path}: 5 archs listed, 4 measured"


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
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    if field == "performance":
        payload["perf"][1][1][0][1] = bad  # float() would have read "0.5" as 0.5 and true as 1.0
    else:
        payload["tasks"][1][1][0] = bad
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"corrupt store file {path}: task 'svhn': {field} {shown} is not a number"
    )


@pytest.mark.parametrize("candidates", ["24", ["2", 4], None])
def test_load_rejects_candidates_that_are_not_a_list_of_strings(store2x2, tmp_path, candidates):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["space"][1] == ["depth", ["2", "4"]]
    payload["space"][1][1] = candidates  # tuple("24") would have read ("2", "4")
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == (
        f"corrupt store file {path}: dimension 'depth': "
        f"candidates {candidates!r} are not a list of strings"
    )


@pytest.mark.parametrize("second", [slice(2, None), slice(0, 0)])
def test_load_rejects_a_task_listed_twice_in_perf(store2x2, tmp_path, second):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    tid, pairs = payload["perf"][0]
    payload["perf"][0][1] = pairs[:2]
    payload["perf"].append([tid, pairs[second]])  # the two lists used to merge into one task
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == f"corrupt store file {path}: task 'cifar10' is listed twice in perf"


@pytest.mark.parametrize("entry", [[5, []], [None, []], ["ghost", []], ["ghost", [[0, 0.5]]]])
def test_load_rejects_a_perf_entry_that_names_no_known_task(store2x2, tmp_path, entry):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["perf"].append(entry)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreFormatError) as info:
        load_store(path)
    assert str(info.value) == f"corrupt store file {path}: perf entry names unknown task {entry[0]!r}"


def test_load_keeps_a_known_task_with_no_measurements(store2x2, tmp_path):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tasks"].append(["idle", payload["tasks"][0][1], "acc", "max", None, None])
    payload["perf"].append(["idle", []])
    path.write_text(json.dumps(payload), encoding="utf-8")
    store = load_store(path)
    assert "idle" in store.tasks and store.performances("idle") == {}


FAULTY_ROWS = {
    # cifar10 measures (0, 0) twice: its last pair's id 3 becomes 0
    "duplicate": ((0, 3, 0, 0), "duplicate measurement for task 'cifar10', design (0, 0)"),
    # svhn's first value, written as Infinity
    "non-finite": ((1, 0, 1, math.inf), "task 'svhn', design (0, 0): non-finite performance"),
}


@pytest.mark.parametrize(
    "faults", [["duplicate"], ["non-finite"], ["duplicate", "non-finite"]], ids="+".join
)
def test_load_reports_the_first_faulty_row(store2x2, tmp_path, faults):
    path = tmp_path / "store.json"
    store2x2.persist(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    for fault in faults:
        (task, pair, field, value), _ = FAULTY_ROWS[fault]
        payload["perf"][task][1][pair][field] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(StoreError) as info:
        load_store(path)
    assert type(info.value) is StoreError
    assert str(info.value) == FAULTY_ROWS[faults[0]][1]


def shuffled_payload(payload: dict, rng: random.Random) -> dict:
    """The store's file written by hand: archs permuted, ids remapped, tasks and pairs shuffled."""
    archs = payload["archs"]
    order = rng.sample(range(len(archs)), len(archs))  # new position j holds old arch order[j]
    new_id = {old: new for new, old in enumerate(order)}
    perf = [
        [tid, rng.sample([[new_id[a], v] for a, v in pairs], len(pairs))]
        for tid, pairs in payload["perf"]
    ]
    return {
        **payload,
        "archs": [archs[old] for old in order],
        "tasks": rng.sample(payload["tasks"], len(payload["tasks"])),
        "perf": rng.sample(perf, len(perf)),
    }


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
    payload = json.loads(path.read_text(encoding="utf-8"))
    if shuffle:
        payload = shuffled_payload(payload, random.Random(seed))
        path.write_text(json.dumps(payload), encoding="utf-8")
    rows = [
        (tid, tuple(payload["archs"][a]), v) for tid, pairs in payload["perf"] for a, v in pairs
    ]
    tasks = [TaskRecord(tid, tuple(stats), *rest) for tid, stats, *rest in payload["tasks"]]
    built = KnowledgeStore.build(space, tasks, rows, payload["stat_names"])
    loaded = load_store(path)
    assert loaded.to_payload() == built.to_payload() == store.to_payload()
    assert loaded.performance_matrix.tobytes() == built.performance_matrix.tobytes()
    loaded.persist(tmp / "loaded.json")
    built.persist(tmp / "built.json")
    assert (tmp / "loaded.json").read_bytes() == (tmp / "built.json").read_bytes()
    if not shuffle:
        assert (tmp / "loaded.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_collector_as_it_found_it(store2x2, tmp_path, enabled):
    good, truncated, bad_id = tmp_path / "good.json", tmp_path / "cut.json", tmp_path / "id.json"
    store2x2.persist(good)
    truncated.write_text(good.read_text(encoding="utf-8")[:-20], encoding="utf-8")
    payload = json.loads(good.read_text(encoding="utf-8"))
    payload["perf"][0][1][0][0] = -1
    bad_id.write_text(json.dumps(payload), encoding="utf-8")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_store(good) == store2x2
        assert gc.isenabled() is enabled
        for corrupt in (truncated, bad_id):
            with pytest.raises(StoreFormatError):
                load_store(corrupt)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_task_record_validation():
    with pytest.raises(StoreError):
        TaskRecord("")
    with pytest.raises(StoreError):
        TaskRecord("t", direction="sideways")
    for task_id in (("t",), ["t"], 5, None):
        with pytest.raises(StoreError, match="non-empty string"):
            TaskRecord(task_id)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_performances_at_reads_every_record_and_nan_elsewhere(seed):
    space = make_space(3, 2, 2)
    store = partial_random_store(space, n_tasks=3, coverage=0.5, seed=seed).subset(
        ["task00", "task02"]
    )
    assert store.arch_count < space.size  # the subset lacks some designs
    tasks = ["task02", "ghost", "task00"]
    designs = list(space.iter_tuples())
    # every rank, in shuffled order and with repeats
    ranks = np.random.default_rng(seed).permutation(np.repeat(np.arange(space.size), 2))
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
    assert store.performances_at([], ranks).shape == (0, len(ranks))
    assert store.performance_matrix.shape == (2 + 1, store.arch_count + 1)
    assert store.arch_ranks.tolist() == [space.index_of(d) for d in store.arch_tuples]
