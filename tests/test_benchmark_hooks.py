"""The benchmark in ``perfbench/`` hooks program names; each one must still exist.

``perfbench/run.py`` wraps functions and methods where their callers look
them up (``engine.build_graph``, ``RefinementEngine.step``, ...).  A renamed or
deleted name would otherwise only show up as a crash of the benchmark run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("perfbench_run", "tracing", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/run.py`` as a module, with its sibling modules importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_run"] = run
    try:
        spec.loader.exec_module(run)
        yield run, importlib.import_module("tracing")
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


# Names that ``src/`` keeps only because the benchmark wraps them.  When the
# hooks move to names the package calls, each of these is code to delete.
BENCHMARK_ONLY = (
    ("engine", "build_graph"),
    ("engine", "local_gains"),
    ("engine", "edge_samples"),
    ("engine", "predict_gain"),
    ("planner", "edge_samples"),
    ("planner", "edge_features"),
    ("GainRegressor", "params"),
)


def test_benchmark_only_names_are_still_wrapped(perfbench):
    run, tracing = perfbench
    from mdesign import engine, planner

    owners = {"engine": engine, "planner": planner, "GainRegressor": planner.GainRegressor}
    names = [(owners[owner], attr) for owner, attr in BENCHMARK_ONLY]
    originals = [getattr(owner, attr) for owner, attr in names]
    with tracing.Patcher() as patcher:
        run.install_probe(patcher, tracing.Marks())
        run.install_tracer(patcher, tracing.Tracer())
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original, attr
    assert [getattr(owner, attr) for owner, attr in names] == originals


def test_benchmark_hooks_install_and_restore(perfbench):
    run, tracing = perfbench
    from mdesign import engine, planner

    originals = (engine.build_graph, engine.RefinementEngine.step, planner.edge_samples)
    with tracing.Patcher() as patcher:
        run.install_probe(patcher, tracing.Marks())
        run.install_tracer(patcher, tracing.Tracer())
        assert engine.build_graph is not originals[0]
    assert (engine.build_graph, engine.RefinementEngine.step, planner.edge_samples) == originals
