"""Per-task gain graphs: architectures as nodes, one-hop moves as signed edges.

A gain graph is a read view over one task's records in the knowledge store.
Every measured pair of adjacent architectures contributes one undirected edge
whose two directions carry exactly opposite gains, so any directed cycle sums
to zero by construction.
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
    def _perfs(self) -> dict[int, float]:
        """The store's own ``{arch id: performance}`` records, built on first read."""
        return self.store._perf[self.task_id]

    @property
    def node_count(self) -> int:
        return len(self._perfs)

    @property
    def edge_count(self) -> int:
        return len(self.store.derive_gains(self.task_id))


def build_graph(store: KnowledgeStore, task_id: str) -> GainGraph:
    """Materialize the gain graph of one task."""
    return GainGraph(store, task_id)


def edge_samples(graph: GainGraph) -> list[EdgeSample]:
    """Measured edges as training samples, one direction each, in canonical order."""
    out: list[EdgeSample] = []
    for rec in graph.store.derive_gains(graph.task_id):
        a = graph.store.arch_tuple(rec.arch_from)
        b = graph.store.arch_tuple(rec.arch_to)
        out.append(EdgeSample(a, b, rec.gain))
    return out


def local_gains(graph: GainGraph, design: DesignTuple) -> dict[Modification, float | None]:
    """Gains of every one-hop move out of ``design`` on this task.

    Keys cover the full neighbor set of the design in canonical neighbor
    order; moves whose endpoint (or the design itself) was never measured map
    to None rather than being dropped.
    """
    graph.store.space.validate(design)
    out: dict[Modification, float | None] = {}
    a = graph.store.arch_id_of(design)
    here = graph._perfs.get(a) if a is not None else None
    for mod, nbr in graph.store.space.neighbors(design):
        if here is None:
            out[mod] = None
            continue
        b = graph.store.arch_id_of(nbr)
        there = graph._perfs.get(b) if b is not None else None
        out[mod] = None if there is None else there - here
    return out


def edge_list_text(graph: GainGraph) -> str:
    """Plain-text export: one canonical edge per line.

    Format: ``<from labels> -> <to labels> : <gain>`` using ``|`` to join the
    per-dimension candidate labels.  Deterministic for a given store.
    """
    space = graph.store.space
    records = graph.store.derive_gains(graph.task_id)
    lines = [f"# task {graph.task_id}: {graph.node_count} nodes, {len(records)} edges"]
    for rec in records:
        a = "|".join(space.labels_of(graph.store.arch_tuple(rec.arch_from)))
        b = "|".join(space.labels_of(graph.store.arch_tuple(rec.arch_to)))
        lines.append(f"{a} -> {b} : {rec.gain!r}")
    return "\n".join(lines) + "\n"
