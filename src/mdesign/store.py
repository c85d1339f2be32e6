"""Benchmark knowledge store: per-task architecture performances and derived gains.

The store holds, for each benchmark task, the measured performance of every
recorded design tuple plus optional task-level statistics.  Performances are
normalized so that higher is always better (tasks declared with direction
``min`` are negated at ingestion).  Pairwise modification gains are *derived*
from the performance records, never stored, so the two directions of an edge
can never drift out of sync: ``gain(a -> b) == -gain(b -> a)`` holds exactly.

Canonicalization: architecture ids are assigned by lexicographic order of the
design tuples and tasks are kept in sorted task-id order, so two stores built
from the same rows in any order serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .space import DesignDimension, DesignSpace, DesignSpaceError, DesignTuple

__all__ = [
    "StoreError",
    "IngestError",
    "StoreFormatError",
    "TaskRecord",
    "GainRecord",
    "KnowledgeStore",
    "ingest_benchmark",
    "load_store",
]

STORE_FORMAT = "mdesign-store"
STORE_VERSION = 1


class StoreError(ValueError):
    """Invalid store contents or queries."""


class IngestError(StoreError):
    """Malformed benchmark input (carries the offending row/line where known)."""


class StoreFormatError(StoreError):
    """Corrupt or version-incompatible persisted store file."""


@dataclass(frozen=True)
class TaskRecord:
    """Identity and metadata of one benchmark task."""

    task_id: str
    stats: tuple[float, ...] = ()
    metric: str = "performance"
    direction: str = "max"
    dataset_id: str = ""
    task_type: str = ""

    def __post_init__(self) -> None:
        if not self.task_id:
            raise StoreError("task_id must be non-empty")
        if self.direction not in ("max", "min"):
            raise StoreError(f"task {self.task_id!r}: direction must be 'max' or 'min'")


@dataclass(frozen=True)
class GainRecord:
    """Signed performance change of a one-hop move on one task.

    Stored in canonical direction (``arch_from`` precedes ``arch_to`` in
    architecture-id order); the reverse direction is the negation.
    """

    task_id: str
    arch_from: int
    arch_to: int
    gain: float


class KnowledgeStore:
    """Immutable-by-convention registry of tasks, architectures and performances."""

    def __init__(
        self,
        space: DesignSpace,
        tasks: Mapping[str, TaskRecord],
        arch_tuples: tuple[DesignTuple, ...],
        perf: Mapping[str, Mapping[int, float]],
        stat_names: tuple[str, ...] = (),
    ):
        self.space = space
        self.tasks: dict[str, TaskRecord] = dict(tasks)
        self.arch_tuples = arch_tuples
        self.stat_names = tuple(stat_names)
        self._arch_ids: dict[DesignTuple, int] = {t: i for i, t in enumerate(arch_tuples)}
        self._task_rows: dict[str, int] = {t: i for i, t in enumerate(self.tasks)}
        self._perf: dict[str, dict[int, float]] = {t: dict(p) for t, p in perf.items()}

    # ----------------------------------------------------------- construction
    @classmethod
    def build(
        cls,
        space: DesignSpace,
        tasks: Iterable[TaskRecord],
        perf_rows: Iterable[tuple[str, DesignTuple, float]],
        stat_names: Iterable[str] = (),
    ) -> "KnowledgeStore":
        """Canonicalize raw rows into a store.

        Row order never matters: tasks are sorted by id and architecture ids
        follow lexicographic design-tuple order.  Duplicate (task, tuple)
        measurements and stat vectors that do not match ``stat_names`` are
        rejected.  A design object passed in several rows is validated once.
        """
        stat_names = tuple(stat_names)
        task_map: dict[str, TaskRecord] = {}
        for rec in tasks:
            if rec.task_id in task_map:
                raise StoreError(f"duplicate task id {rec.task_id!r}")
            if len(rec.stats) != len(stat_names):
                raise StoreError(
                    f"task {rec.task_id!r}: expected {len(stat_names)} statistics, got {len(rec.stats)}"
                )
            task_map[rec.task_id] = rec
        measured: dict[str, dict[DesignTuple, float]] = {tid: {} for tid in task_map}
        # id -> design object already validated; holding the object keeps its id unique.
        # Identity, not equality: (1.0, 2) and (True, 2) equal (1, 2) but are invalid.
        checked: dict[int, DesignTuple] = {}
        for task_id, design, value in perf_rows:
            task_values = measured.get(task_id)
            if task_values is None:
                raise StoreError(f"performance row references unknown task {task_id!r}")
            if checked.get(id(design)) is not design:
                space.validate(design)
                checked[id(design)] = design
            if design in task_values:
                raise StoreError(f"duplicate measurement for task {task_id!r}, design {design!r}")
            try:
                value = float(value)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise StoreError(f"task {task_id!r}, design {design!r}: non-finite performance")
            task_values[design] = value
        arch_tuples = tuple(sorted(set().union(*measured.values())))
        arch_ids = {t: i for i, t in enumerate(arch_tuples)}
        perf = {
            tid: {arch_ids[design]: value for design, value in task_values.items()}
            for tid, task_values in measured.items()
        }
        ordered = {tid: task_map[tid] for tid in sorted(task_map)}
        return cls(space, ordered, arch_tuples, perf, stat_names)

    # ---------------------------------------------------------------- queries
    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self.tasks)

    @property
    def arch_count(self) -> int:
        return len(self.arch_tuples)

    def arch_tuple(self, arch_id: int) -> DesignTuple:
        if not 0 <= arch_id < len(self.arch_tuples):
            raise StoreError(f"architecture id {arch_id} out of range")
        return self.arch_tuples[arch_id]

    def arch_id_of(self, design: DesignTuple) -> int | None:
        """Architecture id of a design tuple, or None if never recorded."""
        return self._arch_ids.get(design)

    def _require_task(self, task_id: str) -> None:
        if task_id not in self.tasks:
            raise StoreError(f"unknown task {task_id!r}")

    def performances(self, task_id: str) -> dict[int, float]:
        """All recorded performances for a task, keyed by architecture id."""
        self._require_task(task_id)
        return dict(self._perf.get(task_id, {}))

    def performance_of(self, task_id: str, design: DesignTuple) -> float | None:
        """Recorded performance of a design tuple on a task, or None."""
        self._require_task(task_id)
        arch = self._arch_ids.get(design)
        if arch is None:
            return None
        return self._perf[task_id].get(arch)

    def best_architecture(self, task_id: str) -> tuple[int, float]:
        """Highest-performing recorded architecture (ties: lowest id)."""
        self._require_task(task_id)
        perfs = self._perf.get(task_id, {})
        if not perfs:
            raise StoreError(f"task {task_id!r} has no performance records")
        best_id = min(perfs, key=lambda a: (-perfs[a], a))
        return best_id, perfs[best_id]

    def stats_vector(self, task_id: str) -> tuple[float, ...]:
        self._require_task(task_id)
        return self.tasks[task_id].stats

    # ------------------------------------------------------------ array view
    @cached_property
    def performance_matrix(self) -> np.ndarray:
        """``(tasks + 1, archs + 1)`` performances, NaN where nothing was measured.

        Row ``i`` is ``task_ids[i]`` and column ``a`` is architecture id
        ``a``.  The extra last row and column are all NaN: they stand for a
        task and a design the store does not hold.  Built once, on first use.
        """
        matrix = np.full((len(self.tasks) + 1, len(self.arch_tuples) + 1), math.nan)
        for row, tid in zip(matrix, self.tasks):
            perfs = self._perf[tid]
            row[np.fromiter(perfs, np.intp, len(perfs))] = np.fromiter(
                perfs.values(), float, len(perfs)
            )
        matrix.flags.writeable = False  # shared by every reader of the store
        return matrix

    def performances_at(
        self, task_ids: Sequence[str], designs: Sequence[DesignTuple]
    ) -> np.ndarray:
        """``(tasks, designs)`` recorded performances, read with one gather.

        NaN where a task did not measure a design, and for a task or a design
        the store does not hold.
        """
        rows, no_row = self._task_rows, len(self._task_rows)
        cols, no_col = self._arch_ids, len(self.arch_tuples)
        at_rows = np.fromiter((rows.get(t, no_row) for t in task_ids), np.intp, len(task_ids))
        at_cols = np.fromiter((cols.get(d, no_col) for d in designs), np.intp, len(designs))
        return self.performance_matrix[at_rows[:, None], at_cols]

    # ------------------------------------------------------------------ gains
    def derive_gains(self, task_id: str) -> list[GainRecord]:
        """All measured one-hop gains for a task, one record per edge.

        Records are emitted in canonical direction (lower architecture id to
        higher) sorted by endpoint ids; a task with fewer than two recorded
        architectures yields no records.
        """
        self._require_task(task_id)
        perfs = self._perf.get(task_id, {})
        if len(perfs) < 2:
            return []
        out: list[GainRecord] = []
        for arch_from in sorted(perfs):
            design = self.arch_tuples[arch_from]
            for _, nbr in self.space.neighbors(design):
                arch_to = self._arch_ids.get(nbr)
                if arch_to is None or arch_to not in perfs:
                    continue
                if arch_to <= arch_from:
                    continue  # reverse direction is the negation; store one
                out.append(
                    GainRecord(task_id, arch_from, arch_to, perfs[arch_to] - perfs[arch_from])
                )
        return out

    def subset(self, task_ids: Iterable[str]) -> "KnowledgeStore":
        """A new store holding only the given tasks, canonical as if built from their rows.

        The kept rows are already validated, so the store is cut, not rebuilt:
        tasks stay sorted and the architectures they measure keep their
        relative order, which is lexicographic tuple order, under new ids.
        """
        keep = list(task_ids)
        unknown = sorted(set(keep) - set(self.tasks))
        if unknown:
            raise StoreError(f"unknown tasks: {unknown}")
        if not keep:
            raise StoreError("subset needs at least one task")
        kept: set[str] = set()
        for tid in keep:
            if tid in kept:
                raise StoreError(f"duplicate task id {tid!r}")
            kept.add(tid)
        used = sorted(set().union(*(self._perf[tid] for tid in kept)))
        new_id = {arch: i for i, arch in enumerate(used)}
        return KnowledgeStore(
            self.space,
            {tid: self.tasks[tid] for tid in sorted(kept)},
            tuple(self.arch_tuples[arch] for arch in used),
            {tid: {new_id[a]: v for a, v in self._perf[tid].items()} for tid in keep},
            self.stat_names,
        )

    # ------------------------------------------------------------ persistence
    def to_payload(self) -> dict:
        """Canonical JSON-ready representation (drives persistence and equality)."""
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "space": [[d.name, list(d.candidates)] for d in self.space.dimensions],
            "stat_names": list(self.stat_names),
            "tasks": [
                [
                    rec.task_id,
                    list(rec.stats),
                    rec.metric,
                    rec.direction,
                    rec.dataset_id,
                    rec.task_type,
                ]
                for rec in self.tasks.values()
            ],
            "archs": [list(t) for t in self.arch_tuples],
            "perf": [
                [tid, [[a, self._perf[tid][a]] for a in sorted(self._perf[tid])]]
                for tid in self.tasks
            ],
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeStore) and self.to_payload() == other.to_payload()

    def persist(self, path: str | Path) -> None:
        """Write the store as deterministic JSON (same store -> same bytes)."""
        text = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(text + "\n", encoding="utf-8")


def load_store(path: str | Path) -> KnowledgeStore:
    """Load a persisted store, rejecting corrupt or version-mismatched files."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != STORE_FORMAT:
        raise StoreFormatError(f"{path} is not a knowledge-store file")
    if payload.get("version") != STORE_VERSION:
        raise StoreFormatError(
            f"store version mismatch: file has {payload.get('version')!r}, "
            f"this build reads version {STORE_VERSION}"
        )
    try:
        space = DesignSpace(
            DesignDimension(name, tuple(cands)) for name, cands in payload["space"]
        )
        stat_names = tuple(payload["stat_names"])
        tasks = [
            TaskRecord(
                task_id=tid,
                stats=tuple(float(x) for x in stats),
                metric=metric,
                direction=direction,
                dataset_id=dataset_id,
                task_type=task_type,
            )
            for tid, stats, metric, direction, dataset_id, task_type in payload["tasks"]
        ]
        archs = [tuple(t) for t in payload["archs"]]  # choices are checked once per design, in build
        rows: list[tuple[str, DesignTuple, float]] = []
        for tid, pairs in payload["perf"]:
            for arch_id, value in pairs:
                # bool is an int, and negative ids index from the end: neither names an arch
                if type(arch_id) is not int or not 0 <= arch_id < len(archs):
                    raise StoreFormatError(f"architecture id {arch_id!r} out of range")
                rows.append((tid, archs[arch_id], float(value)))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    try:
        store = KnowledgeStore.build(space, tasks, rows, stat_names)
    except DesignSpaceError as exc:  # an arch that is not a point of the space, e.g. a 1.9 choice
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    if store.arch_count != len(archs):  # persist lists each measured design once, and no other
        raise StoreFormatError(
            f"corrupt store file {path}: {len(archs)} archs listed, {store.arch_count} measured"
        )
    return store


# ------------------------------------------------------------------ ingestion


def parse_manifest(text: str, space: DesignSpace) -> dict[str, dict]:
    """Parse and validate the benchmark manifest (JSON).

    Schema: ``{"space_size": int, "tasks": {task_id: {"metric": str,
    "direction": "max"|"min", ...}}}``.  The declared size must match the
    attached design space.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise IngestError("manifest must be a JSON object")
    declared = payload.get("space_size")
    if declared != space.size:
        raise IngestError(
            f"manifest declares space size {declared!r}, design space has {space.size}"
        )
    tasks = payload.get("tasks", {})
    if not isinstance(tasks, dict):
        raise IngestError("manifest 'tasks' must map task ids to metadata objects")
    for tid, meta in tasks.items():
        if not isinstance(meta, dict):
            raise IngestError(f"manifest task {tid!r}: metadata must be an object")
        direction = meta.get("direction", "max")
        if direction not in ("max", "min"):
            raise IngestError(
                f"manifest task {tid!r}: direction must be 'max' or 'min', got {direction!r}"
            )
    return tasks


def ingest_benchmark(
    space: DesignSpace,
    records_text: str,
    stats_text: str | None = None,
    manifest_text: str | None = None,
) -> KnowledgeStore:
    """Build a store from benchmark CSV text.

    ``records_text`` columns: ``task_id``, one column per space dimension
    (candidate labels), ``performance``.  ``stats_text`` columns: ``task_id``
    then one column per statistic; when given it must cover exactly the tasks
    seen in the records.  ``manifest_text`` optionally declares per-task
    metric and optimization direction; tasks declared ``min`` are negated so
    stored performances are uniformly higher-is-better.
    """
    manifest = parse_manifest(manifest_text, space) if manifest_text is not None else {}

    reader = csv.reader(io.StringIO(records_text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("records CSV is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "task_id" or header[-1] != "performance":
        raise IngestError(
            "records CSV header must be 'task_id,<dimension names...>,performance'"
        )
    dim_cols = header[1:-1]
    if sorted(dim_cols) != sorted(space.dimension_names):
        raise IngestError(
            f"records CSV dimensions {dim_cols} do not match space dimensions "
            f"{list(space.dimension_names)}"
        )
    col_of = {name: i + 1 for i, name in enumerate(dim_cols)}
    order = [col_of[name] for name in space.dimension_names]

    rows: list[tuple[str, DesignTuple, float]] = []
    task_ids: list[str] = []
    for rownum, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise IngestError(
                f"records row {rownum}: expected {len(header)} columns, got {len(row)}"
            )
        task_id = row[0].strip()
        if not task_id:
            raise IngestError(f"records row {rownum}: empty task_id")
        labels = [row[i].strip() for i in order]
        try:
            design = space.tuple_from_labels(labels)
        except Exception as exc:
            raise IngestError(f"records row {rownum}: {exc}") from None
        try:
            value = float(row[-1])
        except ValueError:
            raise IngestError(
                f"records row {rownum}: performance {row[-1]!r} is not a number"
            ) from None
        if not math.isfinite(value):
            raise IngestError(f"records row {rownum}: performance must be finite")
        if task_id not in task_ids:
            task_ids.append(task_id)
        rows.append((task_id, design, value))
    if not rows:
        raise IngestError("records CSV has no data rows")

    stat_names: tuple[str, ...] = ()
    stats_map: dict[str, tuple[float, ...]] = {}
    if stats_text is not None:
        sreader = csv.reader(io.StringIO(stats_text))
        try:
            sheader = next(sreader)
        except StopIteration:
            raise IngestError("stats CSV is empty") from None
        sheader = [h.strip() for h in sheader]
        if not sheader or sheader[0] != "task_id":
            raise IngestError("stats CSV header must start with 'task_id'")
        stat_names = tuple(sheader[1:])
        if len(set(stat_names)) != len(stat_names):
            raise IngestError("stats CSV has duplicate statistic names")
        for rownum, row in enumerate(sreader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(sheader):
                raise IngestError(
                    f"stats row {rownum}: expected {len(sheader)} columns, got {len(row)}"
                )
            tid = row[0].strip()
            if tid in stats_map:
                raise IngestError(f"stats row {rownum}: duplicate task {tid!r}")
            try:
                stats_map[tid] = tuple(float(x) for x in row[1:])
            except ValueError:
                raise IngestError(f"stats row {rownum}: non-numeric statistic") from None
        missing = sorted(set(task_ids) - set(stats_map))
        if missing:
            raise IngestError(f"stats CSV missing tasks: {missing}")
        extra = sorted(set(stats_map) - set(task_ids))
        if extra:
            raise IngestError(f"stats CSV lists unknown tasks: {extra}")

    tasks: list[TaskRecord] = []
    flips: dict[str, bool] = {}
    for tid in task_ids:
        meta = manifest.get(tid, {})
        direction = meta.get("direction", "max")
        flips[tid] = direction == "min"
        tasks.append(
            TaskRecord(
                task_id=tid,
                stats=stats_map.get(tid, ()),
                metric=meta.get("metric", "performance"),
                direction=direction,
                dataset_id=meta.get("dataset_id", ""),
                task_type=meta.get("task_type", ""),
            )
        )
    normalized = [
        (tid, design, -value if flips[tid] else value) for tid, design, value in rows
    ]
    try:
        return KnowledgeStore.build(space, tasks, normalized, stat_names)
    except StoreError as exc:
        raise IngestError(str(exc)) from None
