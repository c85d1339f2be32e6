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
identical bytes.  A store holds its designs as ranks only, and its performances
as one ``(tasks, archs)`` matrix, NaN where nothing was measured.

A store file (version 5) is one line of sorted-key compact JSON, the header,
then the two parts as raw little-endian bytes.  The header holds every field
but the arrays, plus ``"designs"``, the number of designs.  After its ``\n``
come the ranks, one int64 per design, then one row per ``"tasks"`` entry, in
that order, of one float64 per design, NaN where the task measured nothing.
The bytes round-trip exactly, and every NaN is written with the one bit
pattern of ``np.nan``, so equal stores give equal files.  Loading reads the
arrays as ``np.frombuffer`` views of the file's bytes and checks them in bulk.
``build``, ``load_store`` and ``subset`` all end in the same constructor.  The
header is written and read by the standard ``json`` module.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from numbers import Real
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .space import DesignDimension, DesignSpace, DesignTuple

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
STORE_VERSION = 5


class StoreError(ValueError):
    """Invalid store contents or queries."""


class IngestError(StoreError):
    """Malformed benchmark input (carries the offending row/line where known)."""


class StoreFormatError(StoreError):
    """Corrupt or version-incompatible persisted store file."""


@dataclass(frozen=True)
class TaskRecord:
    """Identity and metadata of one benchmark task; ``stats`` are held as finite floats."""

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
        for field in ("metric", "dataset_id", "task_type"):
            value = getattr(self, field)
            if not isinstance(value, str):
                raise StoreError(f"task {self.task_id!r}: {field} {value!r} is not a string")
        object.__setattr__(self, "stats", tuple(self._statistic(x) for x in self.stats))

    def _statistic(self, value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, Real):
            raise StoreError(f"task {self.task_id!r}: statistic {value!r} is not a number")
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            number = math.inf
        if not math.isfinite(number):
            raise StoreError(f"task {self.task_id!r}: statistic {value!r} is not finite")
        return number


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
        arch_ranks: np.ndarray,
        perf: np.ndarray,
        stat_names: tuple[str, ...] = (),
    ):
        """A store from checked parts, as ``build``, ``load_store`` and ``subset`` make them.

        ``arch_ranks`` are the distinct mixed-radix ranks of points of
        ``space``, and ``perf`` is ``(tasks, archs)`` in the order of
        ``tasks`` and of the ranks, NaN where nothing was measured.  The store
        sorts tasks by id and designs by rank, which is lexicographic tuple
        order, and copies ``perf`` once, into its matrix.  A design is held
        only as its rank: ``arch_tuple`` decodes one on demand.
        """
        ranks = np.asarray(arch_ranks, dtype=np.int64)
        columns: slice | np.ndarray = slice(None, -1)  # each design's matrix column
        if not (ranks[1:] > ranks[:-1]).all():
            order = np.argsort(ranks)
            ranks, columns = ranks[order], np.argsort(order)
        self.space = space
        self.tasks: dict[str, TaskRecord] = {tid: tasks[tid] for tid in sorted(tasks)}
        self.stat_names = tuple(stat_names)
        # the ranks plus one past the last rank of the space: every searchsorted hit is in range
        keys = np.append(ranks, space.size)
        keys.flags.writeable = False
        self._rank_keys = keys
        self._task_rows: dict[str, int] = {t: i for i, t in enumerate(self.tasks)}
        self._rows_memo: dict[tuple[str, ...], np.ndarray] = {}  # see ``_rows_at``
        # (tasks + 1, archs + 1): row i is task_ids[i], column a is arch id a, and the
        # all-NaN last row and column stand for a task and a design the store does not hold.
        matrix = np.full((len(self.tasks) + 1, len(keys)), math.nan)
        for tid, values in zip(tasks, perf):
            matrix[self._task_rows[tid], columns] = values
        matrix.flags.writeable = False  # shared by every reader of the store
        self.performance_matrix = matrix

    @property
    def arch_ranks(self) -> np.ndarray:
        """Mixed-radix rank of each architecture id, ascending."""
        return self._rank_keys[:-1]

    @property
    def arch_tuples(self) -> tuple[DesignTuple, ...]:
        """Every architecture's design tuple, in id order, decoded from the ranks on each call."""
        return tuple(map(tuple, self.space.choices_at(self.arch_ranks).tolist()))

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
        rejected.  Each design is keyed by its mixed-radix rank.
        """
        stat_names = tuple(stat_names)
        task_map = _task_map(tasks, stat_names)
        measured: dict[str, dict[int, float]] = {tid: {} for tid in task_map}  # column -> value
        columns: dict[int, int] = {}  # design rank -> column, in first-seen order
        for task_id, design, value in perf_rows:
            task_values = measured.get(task_id)
            if task_values is None:
                raise StoreError(f"performance row references unknown task {task_id!r}")
            column = columns.setdefault(space.index_of(design), len(columns))
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
        ranks = np.fromiter(columns, np.int64, len(columns))
        return cls(space, task_map, ranks, perf, stat_names)

    # ---------------------------------------------------------------- queries
    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(self.tasks)

    @property
    def arch_count(self) -> int:
        return len(self._rank_keys) - 1

    def arch_tuple(self, arch_id: int) -> DesignTuple:
        """The design tuple of an architecture id, decoded from its rank."""
        if isinstance(arch_id, bool) or not isinstance(arch_id, (int, np.integer)):
            raise StoreError(f"architecture id {arch_id!r} is not an integer")
        if not 0 <= arch_id < self.arch_count:
            raise StoreError(f"architecture id {arch_id} out of range")
        return self.space.tuple_at(self._rank_keys[arch_id])

    def arch_id_of(self, design: DesignTuple) -> int | None:
        """Architecture id of a design tuple, None if never recorded; raises for a non-design."""
        rank = self.space.index_of(design)
        arch = int(self._rank_keys.searchsorted(rank))
        return arch if self._rank_keys[arch] == rank else None

    def _row(self, task_id: str) -> int:
        """The matrix row of a task the store holds."""
        if task_id not in self._task_rows:
            raise StoreError(f"unknown task {task_id!r}")
        return self._task_rows[task_id]

    def performances(self, task_id: str) -> dict[int, float]:
        """All recorded performances for a task, keyed by architecture id."""
        return dict(zip(*_measured(self.performance_matrix[self._row(task_id)])))

    def performance_of(self, task_id: str, design: DesignTuple) -> float | None:
        """Recorded performance of a design tuple on a task, or None (see ``arch_id_of``)."""
        row, arch = self._row(task_id), self.arch_id_of(design)
        value = math.nan if arch is None else float(self.performance_matrix[row, arch])
        return None if math.isnan(value) else value

    def best_architecture(self, task_id: str) -> tuple[int, float]:
        """Highest-performing recorded architecture (ties: lowest id)."""
        best_id = self.best_architectures([task_id])[0]
        return best_id, float(self.performance_matrix[self._row(task_id), best_id])

    def best_architectures(self, task_ids: Sequence[str]) -> list[int]:
        """Each task's ``best_architecture`` id, found in one pass over the matrix rows."""
        at, rows = [self._row(tid) for tid in task_ids], self.performance_matrix[:-1]
        best = np.fmax.reduce(rows, axis=1)  # skips NaN, so NaN only when nothing was measured
        for tid, value in zip(task_ids, best[at].tolist()):
            if math.isnan(value):
                raise StoreError(f"task {tid!r} has no performance records")
        return (rows == best[:, None]).argmax(axis=1)[at].tolist()  # the first maximum

    def stats_vector(self, task_id: str) -> tuple[float, ...]:
        self._row(task_id)
        return self.tasks[task_id].stats

    # ------------------------------------------------------------ array view
    def performances_at(self, task_ids: Sequence[str], ranks: np.ndarray) -> np.ndarray:
        """``(tasks, designs)`` recorded performances of the designs with mixed-radix ``ranks``.

        Columns are found by one ``searchsorted`` over the sorted ranks, and
        the ``(tasks, designs)`` cells are read with one 2-D gather, so no
        whole matrix row is copied.  NaN where a task did not measure a
        design, and for a task or a design the store does not hold.
        """
        keys = self._rank_keys
        cols = keys.searchsorted(ranks)
        cols[keys.take(cols) != ranks] = len(keys) - 1  # the NaN column for a design not held
        return self.performance_matrix[self._rows_at(task_ids), cols]

    def _rows_at(self, task_ids: Sequence[str]) -> np.ndarray:
        """The ``(tasks, 1)`` matrix rows of ``task_ids``, looked up once per tuple of ids.

        A task the store does not hold reads the all-NaN last row.
        """
        key = tuple(task_ids)
        rows = self._rows_memo.get(key)
        if rows is None:
            no_row = len(self._task_rows)
            rows = np.array([self._task_rows.get(t, no_row) for t in key], np.intp)[:, None]
            rows.flags.writeable = False
            self._rows_memo[key] = rows
        return rows

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
        row = self.performance_matrix[self._row(task_id)]
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
        of the architectures they measure, in rank order, under new ids.
        """
        keep = list(task_ids)
        unknown = sorted(set(keep) - set(self.tasks))
        if unknown:
            raise StoreError(f"unknown tasks: {unknown}")
        if not keep:
            raise StoreError("subset needs at least one task")
        repeat = _first_repeat(keep)
        if repeat is not None:
            raise StoreError(f"duplicate task id {repeat!r}")
        tids = sorted(keep)
        tasks = {tid: self.tasks[tid] for tid in tids}
        perf = self.performance_matrix[[self._task_rows[tid] for tid in tids], :-1]
        used = np.flatnonzero(~np.isnan(perf).all(axis=0))
        ranks = self.arch_ranks
        if len(used) < self.arch_count:
            ranks, perf = ranks[used], perf[:, used]
        return KnowledgeStore(self.space, tasks, ranks, perf, self.stat_names)

    # ------------------------------------------------------------ persistence
    def to_payload(self) -> dict:
        """The file's header: every field but the arrays, and the number of designs."""
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
            "designs": self.arch_count,
        }

    def _arrays(self) -> tuple[bytes, bytes]:
        """The ranks' little-endian int64 bytes and the matrix's float64 bytes, one NaN pattern."""
        perf = self.performance_matrix[:-1, :-1]
        perf = np.where(np.isnan(perf), np.nan, perf).astype("<f8", copy=False)
        return self.arch_ranks.astype("<i8", copy=False).tobytes(), perf.tobytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KnowledgeStore)
            and self.to_payload() == other.to_payload()
            and self._arrays() == other._arrays()
        )

    def persist(self, path: str | Path) -> None:
        """Write the header line, then the arrays' bytes (same store -> same bytes)."""
        header = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        with open(path, "wb") as file:
            file.write(header.encode("ascii") + b"\n")
            file.writelines(self._arrays())


def _task_map(tasks: Iterable[TaskRecord], stat_names: Sequence[str]) -> dict[str, TaskRecord]:
    """Tasks by id; ``stat_names`` are distinct strings, matched by each task's statistics."""
    if not isinstance(stat_names, (list, tuple)) or (
        any(type(n) is not str for n in stat_names) or len(set(stat_names)) != len(stat_names)
    ):
        raise StoreError(f"stat_names {stat_names!r} are not distinct strings")
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


# ------------------------------------------------------------------- loading


def _dimension(entry: Sequence) -> DesignDimension:
    name, candidates = entry
    if type(candidates) is not list or any(type(c) is not str for c in candidates):
        raise StoreFormatError(
            f"dimension {name!r}: candidates {candidates!r} are not a list of strings"
        )
    return DesignDimension(name, tuple(candidates))


def _task_record(entry: Sequence) -> TaskRecord:
    tid, stats, metric, direction, dataset_id, task_type = entry
    return TaskRecord(tid, tuple(stats), metric, direction, dataset_id, task_type)


def _distinct(values: np.ndarray) -> bool:
    ordered = values if (values[1:] > values[:-1]).all() else np.sort(values)  # persist sorts
    return bool((ordered[1:] != ordered[:-1]).all())


def _first_repeat(items: Iterable):
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)


def _matrix(
    body: memoryview, designs: object, space: DesignSpace, tasks: Mapping[str, TaskRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """The file's design ranks and its ``(tasks, designs)`` performances, NaN where unmeasured.

    Both are ``np.frombuffer`` views of ``body``, the bytes after the header
    line.  Checks run in this order.  ``designs`` is an int >= 0, and ``body``
    holds exactly ``8 x designs x (1 + tasks)`` bytes.  Every rank is below
    the space's size, none listed twice.  No performance is infinite.  Every
    design is measured by some task.
    """
    if type(designs) is not int or designs < 0:
        raise StoreFormatError(f"designs {designs!r} is not an int >= 0")
    size = 8 * designs * (1 + len(tasks))
    if len(body) != size:
        raise StoreFormatError(
            f"{len(body)} bytes follow the header, not {size} "
            f"(8 x {designs} designs x (1 + {len(tasks)} tasks))"
        )
    ranks = np.frombuffer(body, "<i8", designs)
    outside = np.flatnonzero((ranks < 0) | (ranks >= space.size))
    if len(outside):
        raise StoreFormatError(f"rank {ranks[outside[0]]} out of range 0..{space.size - 1}")
    if not _distinct(ranks):
        design = space.tuple_at(_first_repeat(ranks.tolist()))
        raise StoreFormatError(f"design {design!r} is listed twice in archs")
    matrix = np.frombuffer(body, "<f8", offset=8 * designs).reshape(len(tasks), designs)
    infinite = np.isinf(matrix)
    if infinite.any():
        row, at = np.argwhere(infinite)[0]
        tid, design = list(tasks)[row], space.tuple_at(ranks[at])
        raise StoreFormatError(f"task {tid!r}, design {design!r}: non-finite performance")
    measured = np.count_nonzero(~np.isnan(matrix).all(axis=0))
    if measured < designs:
        raise StoreFormatError(f"{designs} archs listed, {measured} measured")
    return ranks, matrix


def load_store(path: str | Path) -> KnowledgeStore:
    """Load a persisted store, rejecting corrupt or version-mismatched files.

    The header line is decoded first; a file of another version, whose every
    earlier layout is one JSON object, is a version mismatch.  The ranks and
    the rows are then read as little-endian views of the file's bytes, so a
    loaded matrix holds the persisted bits and nothing is copied before the
    constructor.  ``_matrix`` checks them in bulk and gives the order of the
    checks.  Every fault is a ``StoreFormatError`` that names the file and the
    first faulty field, rank or value.  A design is named by its tuple, and
    its faults are worded as ``build`` words them.

    The header is decoded by ``json``, so NaN and Infinity literals among the
    statistics reach their finiteness check, which names them; invalid UTF-8
    and truncated headers are corrupt.
    """
    data = Path(path).read_bytes()
    end = data.find(b"\n")
    line = data[:end] if end >= 0 else data
    try:
        header = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
        raise StoreFormatError(f"{path} is not a knowledge-store file")
    if header.get("version") != STORE_VERSION:
        raise StoreFormatError(
            f"store version mismatch in {path}: file has {header.get('version')!r}, "
            f"this build reads version {STORE_VERSION}"
        )
    try:
        space = DesignSpace(_dimension(entry) for entry in header["space"])
        tasks = _task_map(map(_task_record, header["tasks"]), header["stat_names"])
        if end < 0:
            raise StoreFormatError("no newline ends the header")
        ranks, perf = _matrix(memoryview(data)[end + 1 :], header["designs"], space, tasks)
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise StoreFormatError(f"corrupt store file {path}: {exc}") from None
    stat_names = tuple(header["stat_names"])
    return KnowledgeStore(space, tasks, ranks, perf, stat_names)


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

    unknown = sorted(set(manifest) - set(task_ids))
    if unknown:
        raise IngestError(f"manifest lists unknown tasks: {unknown}")
    metas = {tid: manifest.get(tid, {}) for tid in task_ids}
    normalized = [
        (tid, design, -value if metas[tid].get("direction") == "min" else value)
        for tid, design, value in rows
    ]
    try:
        tasks = [
            TaskRecord(
                task_id=tid,
                stats=stats_map.get(tid, ()),
                metric=meta.get("metric", "performance"),
                direction=meta.get("direction", "max"),
                dataset_id=meta.get("dataset_id", ""),
                task_type=meta.get("task_type", ""),
            )
            for tid, meta in metas.items()
        ]
        return KnowledgeStore.build(space, tasks, normalized, stat_names)
    except StoreError as exc:
        raise IngestError(str(exc)) from None
