"""Per-task gain graphs: architectures as nodes, one-hop moves as signed edges.

A gain graph is a read view over one task's records in the knowledge store.
Every measured pair of adjacent architectures contributes one undirected edge
whose two directions carry exactly opposite gains, so any directed cycle sums
to zero by construction.  The edges are ``KnowledgeStore.edges``; nothing else
in the package calls this view.
"""

from __future__ import annotations

from dataclasses import dataclass

from .space import DesignTuple, Modification
from .store import KnowledgeStore

__all__ = [
    "GraphError",
    "EdgeSample",
    "GainGraph",
    "build_graph",
    "edge_samples",
    "local_gains",
    "edge_list_text",
]


class GraphError(ValueError):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class EdgeSample:
    """One directed measured move: ``from_design -> to_design`` with its gain."""

    from_design: DesignTuple
    to_design: DesignTuple
    gain: float


class GainGraph:
    """Signed-edge view of one task's measured architectures."""

    def __init__(self, store: KnowledgeStore, task_id: str):
        if task_id not in store.tasks:
            raise GraphError(f"unknown task {task_id!r}")
        self.store = store
        self.task_id = task_id

    @property
    def node_count(self) -> int:
        return len(self.store.performances(self.task_id))

    @property
    def edge_count(self) -> int:
        return len(self.store.edges(self.task_id)[0])


def build_graph(store: KnowledgeStore, task_id: str) -> GainGraph:
    """Materialize the gain graph of one task."""
    return GainGraph(store, task_id)


def edge_samples(graph: GainGraph) -> list[EdgeSample]:
    """Measured edges as training samples, one direction each, in canonical order."""
    designs = graph.store.arch_tuples
    columns = (column.tolist() for column in graph.store.edges(graph.task_id))
    return [EdgeSample(designs[a], designs[b], gain) for a, b, gain in zip(*columns)]


def local_gains(graph: GainGraph, design: DesignTuple) -> dict[Modification, float | None]:
    """Gains of every one-hop move out of ``design`` on this task.

    Keys cover the full neighbor set of the design in canonical neighbor
    order; moves whose endpoint (or the design itself) was never measured map
    to None rather than being dropped.
    """
    moves = graph.store.space.neighbors(design)  # raises for a design outside the space
    here = graph.store.performance_of(graph.task_id, design)
    out: dict[Modification, float | None] = {}
    for mod, nbr in moves:
        there = None if here is None else graph.store.performance_of(graph.task_id, nbr)
        out[mod] = None if there is None else there - here
    return out


def edge_list_text(graph: GainGraph) -> str:
    """Plain-text export: one canonical edge per line.

    Format: ``<from labels> -> <to labels> : <gain>`` using ``|`` to join the
    per-dimension candidate labels.  Deterministic for a given store.
    """
    space = graph.store.space
    samples = edge_samples(graph)
    lines = [f"# task {graph.task_id}: {graph.node_count} nodes, {len(samples)} edges"]
    for sample in samples:
        a = "|".join(space.labels_of(sample.from_design))
        b = "|".join(space.labels_of(sample.to_design))
        lines.append(f"{a} -> {b} : {sample.gain!r}")
    return "\n".join(lines) + "\n"
