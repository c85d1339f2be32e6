"""Design-space construction, encodings, neighbors, and modifications."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_designs, make_space
from mdesign.space import (
    DesignDimension,
    DesignSpace,
    DesignSpaceError,
    Modification,
    load_design_space,
)
from oracles import reference_neighbors

# --------------------------------------------------------------------- parsing


def test_parse_single_dimension():
    space = load_design_space("width: [64, 128, 256]\n")
    assert space.size == 3
    assert space.dimension_names == ("width",)
    assert space.dimensions[0].candidates == ("64", "128", "256")


def test_parse_comments_and_blank_lines():
    text = """
    # channel widths
    width: [64, 128]   # trailing comment

    depth: [2, 4, 8]
    """
    space = load_design_space(text)
    assert space.dimension_names == ("width", "depth")
    assert space.size == 6


def test_parse_duplicate_dimension_name_reports_line():
    text = "width: [64, 128]\nwidth: [1, 2]\n"
    with pytest.raises(DesignSpaceError, match="line 2"):
        load_design_space(text)


def test_parse_single_candidate_rejected():
    with pytest.raises(DesignSpaceError, match="at least 2"):
        load_design_space("width: [64]\n")


def test_parse_duplicate_candidate_rejected():
    with pytest.raises(DesignSpaceError, match="duplicate"):
        load_design_space("width: [64, 64]\n")


@pytest.mark.parametrize(
    "bad",
    [
        "width 64, 128\n",  # no colon
        "width: 64, 128\n",  # no brackets
        ": [64, 128]\n",  # no name
        "width: [64, , 128]\n",  # empty candidate
    ],
)
def test_parse_malformed_line_rejected(bad):
    with pytest.raises(DesignSpaceError, match="line 1"):
        load_design_space(bad)


def test_parse_empty_config_rejected():
    with pytest.raises(DesignSpaceError, match="no dimensions"):
        load_design_space("# only comments\n\n")


# ---------------------------------------------------------------- construction


def test_dimension_needs_two_candidates():
    with pytest.raises(DesignSpaceError):
        DesignDimension("width", ("64",))


def test_space_rejects_duplicate_names():
    dim = DesignDimension("width", ("a", "b"))
    with pytest.raises(DesignSpaceError, match="duplicate"):
        DesignSpace([dim, dim])


def test_space_rejects_empty():
    with pytest.raises(DesignSpaceError):
        DesignSpace([])


def test_size_is_product_of_candidate_counts():
    assert make_space(3, 4, 2).size == 24
    assert make_space(2, 2, 2, 2).size == 16
    assert make_space(5).size == 5


# ------------------------------------------------------------------- encodings


def test_index_tuple_round_trip(space_3x4x2):
    seen = set()
    for idx in range(space_3x4x2.size):
        t = space_3x4x2.tuple_at(idx)
        assert space_3x4x2.index_of(t) == idx
        seen.add(t)
    assert len(seen) == space_3x4x2.size


def test_index_out_of_range(space_3x4x2):
    with pytest.raises(DesignSpaceError):
        space_3x4x2.tuple_at(space_3x4x2.size)
    with pytest.raises(DesignSpaceError):
        space_3x4x2.tuple_at(-1)


def test_validate_rejects_bad_tuples(space_3x4x2):
    for bad in [(0, 0), (0, 0, 0, 0), (3, 0, 0), (0, -1, 0), (0, 0, "0"), (0, 0, True)]:
        with pytest.raises(DesignSpaceError):
            space_3x4x2.validate(bad)


def test_labels_round_trip(space_3x4x2):
    design = (2, 3, 1)
    labels = space_3x4x2.labels_of(design)
    assert labels == ("c2", "c3", "c1")
    assert space_3x4x2.tuple_from_labels(labels) == design


def test_unknown_label_rejected(space_3x4x2):
    with pytest.raises(DesignSpaceError, match="no candidate"):
        space_3x4x2.tuple_from_labels(("c0", "nope", "c0"))


def test_iter_tuples_order_last_dimension_fastest():
    space = make_space(2, 3)
    assert [space.tuple_at(rank) for rank in range(space.size)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


# ------------------------------------------------------------------- neighbors


def test_neighbor_set_3x3_origin(space_3x3):
    targets = {t for _, t in space_3x3.neighbors((0, 0))}
    assert targets == {(1, 0), (2, 0), (0, 1), (0, 2)}


def test_neighbor_count_is_sum_of_alternatives(space_3x4x2):
    for design in all_designs(space_3x4x2):
        assert len(space_3x4x2.neighbors(design)) == (3 - 1) + (4 - 1) + (2 - 1)


def test_neighbor_order_dimension_major_then_candidate(space_3x3):
    targets = [t for _, t in space_3x3.neighbors((1, 1))]
    assert targets == [(0, 1), (2, 1), (1, 0), (1, 2)]


def switched(design, dim, choice):
    """``design`` with dimension ``dim`` set to ``choice``."""
    return design[:dim] + (choice,) + design[dim + 1 :]


def test_neighbor_modifications_apply_to_their_targets(space_3x4x2):
    design = (1, 2, 0)
    for mod, target in space_3x4x2.neighbors(design):
        assert mod.from_choice == design[mod.dim]
        assert switched(design, mod.dim, mod.to_choice) == target


# --------------------------------------------------------------- modifications


def test_modification_must_change_choice():
    with pytest.raises(DesignSpaceError):
        Modification(0, 1, 1)


def test_reverse_swaps_endpoints():
    mod = Modification(2, 0, 3)
    assert mod.reverse() == Modification(2, 3, 0)
    assert mod.reverse().reverse() == mod


# ------------------------------------------------------------------ invariants

sizes_strategy = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_strategy, data=st.data())
def test_neighbor_relation_is_symmetric(sizes, data):
    space = make_space(*sizes)
    idx = data.draw(st.integers(min_value=0, max_value=space.size - 1))
    design = space.tuple_at(idx)
    for _, other in space.neighbors(design):
        back = {t for _, t in space.neighbors(other)}
        assert design in back


@settings(max_examples=60, deadline=None)
@given(sizes=sizes_strategy, data=st.data())
def test_apply_then_reverse_is_identity(sizes, data):
    space = make_space(*sizes)
    idx = data.draw(st.integers(min_value=0, max_value=space.size - 1))
    design = space.tuple_at(idx)
    for mod, target in space.neighbors(design):
        back = mod.reverse()
        assert back.from_choice == target[back.dim]
        assert switched(target, back.dim, back.to_choice) == design


@settings(max_examples=40, deadline=None)
@given(sizes=sizes_strategy)
def test_neighbors_differ_in_exactly_one_dimension(sizes):
    space = make_space(*sizes)
    design = space.tuple_at(0)
    for mod, target in space.neighbors(design):
        diffs = [d for d in range(len(design)) if design[d] != target[d]]
        assert diffs == [mod.dim]


@settings(max_examples=100, deadline=None)
@given(sizes=sizes_strategy, data=st.data())
def test_hops_are_the_unevaluated_neighbors_in_neighbors_order(sizes, data):
    space = make_space(*sizes)
    design = space.tuple_at(data.draw(st.integers(0, space.size - 1)))
    evaluated = data.draw(st.sets(st.integers(0, space.size - 1)))
    dims, choices, ranks = space.hops(design, evaluated)
    expected = [
        (mod.dim, mod.to_choice, space.index_of(target))
        for mod, target in reference_neighbors(space, design)
        if space.index_of(target) not in evaluated
    ]
    assert list(zip(dims.tolist(), choices.tolist(), ranks.tolist())) == expected
    assert space.hops(design).shape == (3, sum(size - 1 for size in sizes))
    given_rank = space.hops(design, evaluated, space.index_of(design))
    assert given_rank.tolist() == [dims.tolist(), choices.tolist(), ranks.tolist()]


@settings(max_examples=100, deadline=None)
@given(sizes=sizes_strategy, data=st.data())
def test_neighbors_equal_the_reference_loop(sizes, data):
    space = make_space(*sizes)
    design = space.tuple_at(data.draw(st.integers(0, space.size - 1)))
    moves = space.neighbors(design)
    assert moves == reference_neighbors(space, design)
    assert {type(c) for mod, target in moves for c in (mod.dim, mod.to_choice, *target)} == {int}


def test_hops_validate_the_design():
    with pytest.raises(DesignSpaceError):
        make_space(2, 3).hops((0, 3))
