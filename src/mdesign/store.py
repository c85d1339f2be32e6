"""Benchmark knowledge store: per-task architecture performances and derived gains.

The store holds, for each benchmark task, the measured performance of every
recorded design tuple plus optional task-level statistics.  Performances are
normalized so that higher is always better (tasks declared with direction
``min`` are negated at ingestion).  Pairwise modification gains are *derived*
from the performance records, never stored, so the two directions of an edge
can never drift out of sync: ``gain(a -> b) == -gain(b -> a)`` holds exactly.

Canonicalization: architecture ids are assigned by lexicographic order of the
design tuples (their mixed-radix rank) and tasks are kept in sorted task-id
order, so two stores built from the same rows in any order serialize to
identical bytes.  A store holds its performances as one ``(tasks, archs)``
matrix, NaN where nothing was measured.

Loading is columnar: a persisted file is decoded with the cyclic garbage
collector paused, its designs and each task's measurements are read into
arrays and checked in bulk, and only a file that fails a bulk check is walked
row by row, to report its first faulty entry.  ``build``, ``load_store`` and
``subset`` all end in the same constructor.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
from dataclasses import dataclass
from itertools import chain
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
        if not isinstance(self.task_id, str) or not self.task_id:
            raise StoreError(f"task_id must be a non-empty string, got {self.task_id!r}")
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
        arch_tuples: Sequence[DesignTuple],
        arch_ranks: np.ndarray,
        perf: np.ndarray,
        stat_names: tuple[str, ...] = (),
        arch_ids: Mapping[DesignTuple, int] | None = None,
    ):
        """A store from canonical parts, as ``build``, ``load_store`` and ``subset`` make them.

        ``tasks`` are in id order and ``arch_tuples`` in mixed-radix rank
        order, with their ascending ``arch_ranks``; ``perf`` is their
        ``(tasks, archs)`` performances, NaN where nothing was measured.
        ``arch_ids``, when given, is the ``{design: arch id}`` index of
        ``arch_tuples``, shared rather than hashed again.
        """
        self.space = space
        self.tasks: dict[str, TaskRecord] = dict(tasks)
        self.arch_tuples = tuple(arch_tuples)
        self.stat_names = tuple(stat_names)
        self._arch_ids: Mapping[DesignTuple, int] = (
            dict(zip(self.arch_tuples, range(len(self.arch_tuples))))
            if arch_ids is None
            else arch_ids
        )
        # the ranks plus one past the last rank of the space: every searchsorted hit is in range
        keys = np.append(np.asarray(arch_ranks, dtype=np.int64), space.size)
        keys.flags.writeable = False
        self._rank_keys = keys
        self._task_rows: dict[str, int] = {t: i for i, t in enumerate(self.tasks)}
        # (tasks + 1, archs + 1): row i is task_ids[i], column a is arch id a, and the
        # all-NaN last row and column stand for a task and a design the store does not hold.
        matrix = np.full((len(self.tasks) + 1, len(self.arch_tuples) + 1), math.nan)
        matrix[:-1, :-1] = perf
        matrix.flags.writeable = False  # shared by every reader of the store
        self.performance_matrix = matrix

    @property
    def arch_ranks(self) -> np.ndarray:
        """Mixed-radix rank of each architecture id, ascending."""
        return self._rank_keys[:-1]

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
        task_map = _task_map(tasks, stat_names)
        measured: dict[str, dict[int, float]] = {tid: {} for tid in task_map}  # column -> value
        columns: dict[DesignTuple, int] = {}  # designs in first-seen order
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
            column = columns.setdefault(design, len(columns))
            if column in task_values:
                raise StoreError(f"duplicate measurement for task {task_id!r}, design {design!r}")
            try:
                value = float(value)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise StoreError(f"task {task_id!r}, design {design!r}: non-finite performance")
            task_values[column] = value
        perf = np.full((len(task_map), len(columns)), math.nan)
        for row, task_values in zip(perf, measured.values()):
            row[list(task_values)] = list(task_values.values())
        designs = tuple(columns)
        choices = np.array(designs, dtype=np.int64).reshape(len(designs), len(space))
        return cls._canonical(space, task_map, designs, _ranks(space, choices), perf, stat_names)

    @classmethod
    def _canonical(
        cls,
        space: DesignSpace,
        tasks: Mapping[str, TaskRecord],
        designs: tuple[DesignTuple, ...],
        ranks: np.ndarray,
        perf: np.ndarray,
        stat_names: tuple[str, ...],
    ) -> "KnowledgeStore":
        """Order checked columns canonically: the one path of ``build`` and ``load_store``.

        ``designs`` are distinct points of ``space`` with their mixed-radix
        ``ranks``, and ``perf`` is ``(tasks, designs)`` in the order of both.
        Tasks are sorted by id and designs by rank, which is lexicographic
        tuple order; designs already in rank order are not argsorted.
        """
        if not (ranks[1:] > ranks[:-1]).all():
            order = np.argsort(ranks)
            designs = tuple(map(designs.__getitem__, order.tolist()))
            ranks, perf = ranks[order], perf[:, order]
        task_ids = list(tasks)
        rows = sorted(range(len(task_ids)), key=task_ids.__getitem__)
        ordered = {task_ids[i]: tasks[task_ids[i]] for i in rows}
        return cls(space, ordered, designs, ranks, perf[rows], stat_names)

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
        return dict(zip(*_measured(self.performance_matrix[self._task_rows[task_id]])))

    def performance_of(self, task_id: str, design: DesignTuple) -> float | None:
        """Recorded performance of a design tuple on a task, or None."""
        self._require_task(task_id)
        arch = self._arch_ids.get(design)
        if arch is None:
            return None
        value = float(self.performance_matrix[self._task_rows[task_id], arch])
        return None if math.isnan(value) else value

    def best_architecture(self, task_id: str) -> tuple[int, float]:
        """Highest-performing recorded architecture (ties: lowest id)."""
        self._require_task(task_id)
        row = self.performance_matrix[self._task_rows[task_id]]
        best = np.fmax.reduce(row)  # skips NaN, so NaN only when nothing was measured
        if math.isnan(best):
            raise StoreError(f"task {task_id!r} has no performance records")
        best_id = int((row == best).argmax())  # the first maximum
        return best_id, float(row[best_id])

    def stats_vector(self, task_id: str) -> tuple[float, ...]:
        self._require_task(task_id)
        return self.tasks[task_id].stats

    # ------------------------------------------------------------ array view
    def performances_at(self, task_ids: Sequence[str], ranks: np.ndarray) -> np.ndarray:
        """``(tasks, designs)`` recorded performances of the designs with mixed-radix ``ranks``.

        Columns are found by one ``searchsorted`` over the sorted ranks and
        read with one gather.  NaN where a task did not measure a design, and
        for a task or a design the store does not hold.
        """
        rows, no_row = self._task_rows, len(self._task_rows)
        at_rows = np.fromiter((rows.get(t, no_row) for t in task_ids), np.intp, len(task_ids))
        keys = self._rank_keys
        cols = keys.searchsorted(ranks)
        cols[keys.take(cols) != ranks] = len(keys) - 1  # the NaN column for a design not held
        return self.performance_matrix.take(at_rows, axis=0).take(cols, axis=1)

    # ------------------------------------------------------------------ gains
    def edges(self, task_id: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All measured one-hop edges of a task, as ``(arch_from, arch_to, gains)`` arrays.

        Edge ``i`` runs from architecture id ``arch_from[i]`` to the higher id
        ``arch_to[i]``, sorted by endpoint ids; a task with fewer than two
        measured designs has none.  The edges are found by stride
        arithmetic: each measured design's rank plus every hop that raises a
        dimension's candidate, located with one ``searchsorted`` over the
        sorted ranks.  Each gain is one subtraction ``there - here``.
        """
        self._require_task(task_id)
        row = self.performance_matrix[self._task_rows[task_id]]
        ids = np.flatnonzero(~np.isnan(row))
        dims, choices, offsets = np.array(self.space._hop_table, dtype=np.int64).T
        ranks = self.arch_ranks[ids]
        here = self.space.choices_at(ranks)[:, dims]  # each design's choice in each hop's dimension
        to_ranks = ranks[:, None] - here * np.array(self.space._strides)[dims] + offsets
        keys = self._rank_keys
        cols = keys.searchsorted(to_ranks)  # in range: the last key is past every rank
        edges = (choices > here) & (keys[cols] == to_ranks) & ~np.isnan(row[cols])
        at, hop = np.nonzero(edges)  # by source id, then in hop order
        arch_from, arch_to = ids[at], cols[at, hop]
        return arch_from, arch_to, row[arch_to] - row[arch_from]

    def derive_gains(self, task_id: str) -> list[GainRecord]:
        """The task's ``edges`` as one ``GainRecord`` each, in the same order."""
        columns = (column.tolist() for column in self.edges(task_id))
        return [GainRecord(task_id, a, b, gain) for a, b, gain in zip(*columns)]

    def subset(self, task_ids: Iterable[str]) -> "KnowledgeStore":
        """A new store holding only the given tasks, canonical as if built from their rows.

        The kept rows are already validated, so the store is cut, not rebuilt:
        its matrix keeps the given tasks' rows, in id order, and the columns
        of the architectures they measure, in rank order, under new ids.  When
        they measure every architecture, the new store shares this one's
        designs, ranks and design index instead of hashing them again.
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
        tids = sorted(kept)
        tasks = {tid: self.tasks[tid] for tid in tids}
        perf = self.performance_matrix[[self._task_rows[tid] for tid in tids], :-1]
        used = np.flatnonzero(~np.isnan(perf).all(axis=0))
        if len(used) == self.arch_count:
            designs, ranks, arch_ids = self.arch_tuples, self.arch_ranks, self._arch_ids
        else:
            designs = tuple(map(self.arch_tuples.__getitem__, used.tolist()))
            ranks, perf, arch_ids = self.arch_ranks[used], perf[:, used], None
        return KnowledgeStore(self.space, tasks, designs, ranks, perf, self.stat_names, arch_ids)

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
                [tid, list(map(list, zip(*_measured(row))))]
                for tid, row in zip(self.tasks, self.performance_matrix)
            ],
        }

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KnowledgeStore) and self.to_payload() == other.to_payload()

    def persist(self, path: str | Path) -> None:
        """Write the store as deterministic JSON (same store -> same bytes)."""
        text = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        Path(path).write_text(text + "\n", encoding="utf-8")


def _task_map(tasks: Iterable[TaskRecord], stat_names: tuple[str, ...]) -> dict[str, TaskRecord]:
    """Tasks by id, rejecting repeated ids and stat vectors that do not match ``stat_names``."""
    task_map: dict[str, TaskRecord] = {}
    for rec in tasks:
        if rec.task_id in task_map:
            raise StoreError(f"duplicate task id {rec.task_id!r}")
        if len(rec.stats) != len(stat_names):
            raise StoreError(
                f"task {rec.task_id!r}: expected {len(stat_names)} statistics, got {len(rec.stats)}"
            )
        task_map[rec.task_id] = rec
    return task_map


def _measured(row: np.ndarray) -> tuple[list[int], list[float]]:
    """The ids and performances of the archs a matrix row measured, in id order."""
    ids = np.flatnonzero(~np.isnan(row))  # never the all-NaN last column
    return ids.tolist(), row[ids].tolist()


def _ranks(space: DesignSpace, choices: np.ndarray) -> np.ndarray:
    """Mixed-radix ranks of ``(designs, dims)`` valid choices, as ``DesignSpace.index_of``."""
    return choices @ np.array(space._strides, dtype=np.int64)


# ------------------------------------------------------------------- loading


def _number(value: object, what: str) -> float:
    """A JSON number as a float; strings, booleans and nulls are rejected, not coerced."""
    if type(value) not in (int, float):
        raise StoreFormatError(f"{what} {value!r} is not a number")
    return float(value)


def _dimension(entry: Sequence) -> DesignDimension:
    name, candidates = entry
    if type(candidates) is not list or any(type(c) is not str for c in candidates):
        raise StoreFormatError(
            f"dimension {name!r}: candidates {candidates!r} are not a list of strings"
        )
    return DesignDimension(name, tuple(candidates))


def _task_record(entry: Sequence) -> TaskRecord:
    tid, stats, metric, direction, dataset_id, task_type = entry
    return TaskRecord(
        task_id=tid,
        stats=tuple(_number(x, f"task {tid!r}: statistic") for x in stats),
        metric=metric,
        direction=direction,
        dataset_id=dataset_id,
        task_type=task_type,
    )


def _array(items: list, types: set[type], dtype: type) -> np.ndarray | None:
    """``items`` as one array; None when an item is not of ``types`` or does not fit ``dtype``."""
    if set(map(type, items)) - types:
        return None
    try:
        return np.array(items, dtype=dtype)
    except OverflowError:  # an int too large for the dtype
        return None


def _distinct(values: np.ndarray) -> bool:
    ordered = np.sort(values)
    return bool((ordered[1:] != ordered[:-1]).all())


def _columns(
    archs: object, perf: object, space: DesignSpace, task_ids: set[str]
) -> tuple[tuple[DesignTuple, ...], np.ndarray, list[tuple[str, np.ndarray, np.ndarray]]] | None:
    """The file's designs, their ranks and each task's ``(id, ids, values)``; None on any fault.

    Every check runs over a whole column at once.  Choices are JSON ints in
    range, and the designs are distinct and each measured by some task.  Each
    task is known and listed once, its ids are JSON ints in range that do not
    repeat, and its values are finite JSON numbers.  Which entry is at fault
    is left to the row-by-row walk.
    """
    dims = len(space)
    if type(archs) is not list or type(perf) is not list:
        return None
    if set(map(type, archs)) - {list} or set(map(len, archs)) - {dims}:
        return None
    choices = _array(list(chain.from_iterable(archs)), {int}, np.int64)
    if choices is None:
        return None
    choices = choices.reshape(len(archs), dims)
    if ((choices < 0) | (choices >= [len(d.candidates) for d in space.dimensions])).any():
        return None
    ranks = _ranks(space, choices)
    if not _distinct(ranks):
        return None
    measured = []
    listed: set[str] = set()
    covered = np.zeros(len(archs), dtype=bool)
    for entry in perf:
        if type(entry) is not list or len(entry) != 2:
            return None
        tid, pairs = entry
        if type(tid) is not str or tid not in task_ids or tid in listed or type(pairs) is not list:
            return None
        listed.add(tid)
        if not pairs:
            continue
        if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
            return None
        flat = list(chain.from_iterable(pairs))
        ids = _array(flat[0::2], {int}, np.intp)
        values = _array(flat[1::2], {int, float}, float)
        if ids is None or values is None or not np.isfinite(values).all():
            return None
        if ids.min() < 0 or ids.max() >= len(archs) or not _distinct(ids):
            return None
        covered[ids] = True
        measured.append((tid, ids, values))
    if not covered.all():
        return None
    return tuple(map(tuple, archs)), ranks, measured


def _rows(
    archs: Sequence, perf: Sequence, task_ids: set[str]
) -> tuple[list[DesignTuple], list[tuple[str, DesignTuple, float]]]:
    """The file's designs and performance rows, checked one entry at a time."""
    designs = [tuple(t) for t in archs]  # choices are checked once per design, in build
    rows: list[tuple[str, DesignTuple, float]] = []
    listed = set()
    for tid, pairs in perf:
        if type(tid) is not str or tid not in task_ids:  # even with no pairs to name it in build
            raise StoreFormatError(f"perf entry names unknown task {tid!r}")
        if tid in listed:
            raise StoreFormatError(f"task {tid!r} is listed twice in perf")
        listed.add(tid)
        for arch_id, value in pairs:
            # bool is an int, and negative ids index from the end: neither names an arch
            if type(arch_id) is not int or not 0 <= arch_id < len(designs):
                raise StoreFormatError(f"architecture id {arch_id!r} out of range")
            rows.append((tid, designs[arch_id], _number(value, f"task {tid!r}: performance")))
    return designs, rows


def load_store(path: str | Path) -> KnowledgeStore:
    """Load a persisted store, rejecting corrupt or version-mismatched files.

    The file is decoded and checked column by column, with the cyclic
    collector paused.  When a check fails, the rows are walked one at a time,
    as ``build`` takes them, and the first faulty entry is reported.
    """
    # Decoding allocates a small list per design and per measurement, enough to
    # trigger repeated full collections; the payload holds no reference cycles.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(path)  # which frees the payload before the collector resumes
    finally:
        if enabled:
            gc.enable()


def _load(path: str | Path) -> KnowledgeStore:
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
        space = DesignSpace(_dimension(entry) for entry in payload["space"])
        stat_names = tuple(payload["stat_names"])
        tasks = [_task_record(entry) for entry in payload["tasks"]]
        task_ids = {rec.task_id for rec in tasks}
        columns = _columns(payload["archs"], payload["perf"], space, task_ids)
        if columns is None:
            designs, rows = _rows(payload["archs"], payload["perf"], task_ids)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    if columns is not None:
        designs, ranks, measured = columns
        task_map = _task_map(tasks, stat_names)
        perf = np.full((len(task_map), len(designs)), math.nan)
        task_rows = {tid: i for i, tid in enumerate(task_map)}
        for tid, ids, values in measured:
            perf[task_rows[tid], ids] = values
        return KnowledgeStore._canonical(space, task_map, designs, ranks, perf, stat_names)
    try:
        store = KnowledgeStore.build(space, tasks, rows, stat_names)
    except DesignSpaceError as exc:  # an arch that is not a point of the space, e.g. a 1.9 choice
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    if store.arch_count != len(designs):  # persist lists each measured design once, and no other
        raise StoreFormatError(
            f"corrupt store file {path}: {len(designs)} archs listed, {store.arch_count} measured"
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
