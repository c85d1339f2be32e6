"""Discrete design spaces: dimensions, design tuples, and one-hop modifications.

A design space is an ordered product of categorical dimensions.  A point in
the space is a design tuple holding one candidate index per dimension, and a
modification switches exactly one dimension to a different candidate.  The
dimension order fixed at construction time is canonical: it drives tuple
encodings, neighbor enumeration order, and deterministic tie-breaking
everywhere else in the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Container, Iterable

import numpy as np

__all__ = [
    "DesignSpaceError",
    "DesignDimension",
    "DesignSpace",
    "Modification",
    "load_design_space",
]

DesignTuple = tuple  # one candidate index per dimension


class DesignSpaceError(ValueError):
    """Malformed space config, invalid design tuple, or inapplicable modification."""


@dataclass(frozen=True)
class DesignDimension:
    """A named categorical axis with at least two candidate choices."""

    name: str
    candidates: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise DesignSpaceError(f"dimension name must be a non-empty string, got {self.name!r}")
        if len(self.candidates) < 2:
            raise DesignSpaceError(
                f"dimension {self.name!r} needs at least 2 candidates, got {len(self.candidates)}"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise DesignSpaceError(f"dimension {self.name!r} has duplicate candidates")


@dataclass(frozen=True)
class Modification:
    """Switch dimension ``dim`` from candidate index ``from_choice`` to ``to_choice``."""

    dim: int
    from_choice: int
    to_choice: int

    def __post_init__(self) -> None:
        if self.from_choice == self.to_choice:
            raise DesignSpaceError("modification must change the candidate")

    def reverse(self) -> Modification:
        """The inverse move (same dimension, endpoints swapped)."""
        return Modification(self.dim, self.to_choice, self.from_choice)


class DesignSpace:
    """Immutable ordered product of :class:`DesignDimension` axes."""

    def __init__(self, dimensions: Iterable[DesignDimension]):
        dims = tuple(dimensions)
        if not dims:
            raise DesignSpaceError("design space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DesignSpaceError(f"duplicate dimension names: {dupes}")
        self.dimensions: tuple[DesignDimension, ...] = dims
        # mixed-radix strides, last dimension fastest
        strides = [1] * len(dims)
        for d in range(len(dims) - 2, -1, -1):
            strides[d] = strides[d + 1] * len(dims[d + 1].candidates)
        self._strides = tuple(strides)
        self._radix = tuple((s, len(d.candidates)) for s, d in zip(strides, dims))
        self._size = strides[0] * len(dims[0].candidates)
        # every (dimension, candidate, rank offset of that candidate), in move order
        self._hop_table = tuple(
            (d, c, c * strides[d]) for d, dim in enumerate(dims) for c in range(len(dim.candidates))
        )

    # ------------------------------------------------------------------ basic
    @property
    def size(self) -> int:
        """Total number of design tuples (product of candidate counts)."""
        return self._size

    @property
    def dimension_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dimensions)

    def __len__(self) -> int:
        return len(self.dimensions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DesignSpace) and self.dimensions == other.dimensions

    def __repr__(self) -> str:
        inner = ", ".join(f"{d.name}[{len(d.candidates)}]" for d in self.dimensions)
        return f"DesignSpace({inner})"

    def validate(self, design: DesignTuple) -> None:
        """Raise :class:`DesignSpaceError` unless ``design`` is a point of this space."""
        if not isinstance(design, tuple) or len(design) != len(self.dimensions):
            raise DesignSpaceError(
                f"design tuple must have {len(self.dimensions)} entries, got {design!r}"
            )
        for d, choice in enumerate(design):
            n = len(self.dimensions[d].candidates)
            if not isinstance(choice, int) or isinstance(choice, bool) or not 0 <= choice < n:
                raise DesignSpaceError(
                    f"dimension {self.dimensions[d].name!r}: choice {choice!r} out of range 0..{n - 1}"
                )

    # -------------------------------------------------------------- encodings
    def index_of(self, design: DesignTuple) -> int:
        """Mixed-radix rank of a tuple; the inverse of :meth:`tuple_at`."""
        self.validate(design)
        return sum(c * s for c, s in zip(design, self._strides))

    def tuple_at(self, index: int) -> DesignTuple:
        """The design tuple of a mixed-radix rank (an int or a numpy integer)."""
        index = operator.index(index)
        if not 0 <= index < self._size:
            raise DesignSpaceError(f"tuple index {index} out of range 0..{self._size - 1}")
        return tuple([index // stride % size for stride, size in self._radix])

    def choices_at(self, ranks: np.ndarray) -> np.ndarray:
        """``ranks.shape + (dims,)`` choices of the designs at mixed-radix ``ranks`` (unchecked)."""
        choices = np.asarray(ranks)[..., None] // np.array(self._strides)
        choices %= [len(d.candidates) for d in self.dimensions]
        return choices

    def labels_of(self, design: DesignTuple) -> tuple[str, ...]:
        self.validate(design)
        return tuple(d.candidates[c] for d, c in zip(self.dimensions, design))

    def tuple_from_labels(self, labels: Iterable[str]) -> DesignTuple:
        labels = tuple(labels)
        if len(labels) != len(self.dimensions):
            raise DesignSpaceError(
                f"expected {len(self.dimensions)} labels, got {len(labels)}"
            )
        out = []
        for d, label in zip(self.dimensions, labels):
            try:
                out.append(d.candidates.index(label))
            except ValueError:
                raise DesignSpaceError(
                    f"dimension {d.name!r} has no candidate {label!r}"
                ) from None
        return tuple(out)

    # -------------------------------------------------------------- neighbors
    def neighbors(self, design: DesignTuple) -> list[tuple[Modification, DesignTuple]]:
        """The one-hop moves out of ``design`` as ``(modification, target)``, in ``hops`` order."""
        dims, choices, _ = self.hops(design).tolist()
        return [
            (Modification(d, design[d], c), design[:d] + (c,) + design[d + 1 :])
            for d, c in zip(dims, choices)
        ]

    def hops(
        self, design: DesignTuple, exclude: Container[int] = (), rank: int | None = None
    ) -> np.ndarray:
        """One-hop targets of ``design`` whose rank is not in ``exclude``, by stride arithmetic.

        Returns a ``(3, targets)`` intp array of rows ``dims``, ``choices``
        and ``ranks``: target ``i`` switches dimension ``dims[i]`` to
        candidate ``choices[i]`` and has mixed-radix rank ``ranks[i]``.
        Deterministic order: dimensions in declaration order, then target
        candidate index ascending (the current candidate is skipped).  No
        tuple or :class:`Modification` is built.  A caller that holds
        ``design``'s ``index_of`` passes it as ``rank``, and ``design`` is not
        checked again.
        """
        if rank is None:
            rank = self.index_of(design)
        base = [rank - c * s for c, s in zip(design, self._strides)]  # rank with dimension d at 0
        hops = [
            value
            for d, c, offset in self._hop_table
            if c != design[d] and (r := base[d] + offset) not in exclude
            for value in (d, c, r)
        ]
        return np.array(hops, dtype=np.intp).reshape(-1, 3).T


def load_design_space(text: str) -> DesignSpace:
    """Parse a design-space config.

    One dimension per line, ``name: [choice_a, choice_b, ...]``.  Blank lines
    and ``#`` comments (full-line or trailing) are ignored.  Errors carry the
    offending line number.
    """
    dims: list[DesignDimension] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, rest = line.partition(":")
        name = name.strip()
        rest = rest.strip()
        if not sep or not name:
            raise DesignSpaceError(f"line {lineno}: expected 'name: [a, b, ...]', got {raw!r}")
        if not (rest.startswith("[") and rest.endswith("]")):
            raise DesignSpaceError(f"line {lineno}: candidate list must be bracketed, got {raw!r}")
        parts = [p.strip() for p in rest[1:-1].split(",")]
        candidates = tuple(p for p in parts if p)
        if len(candidates) != len(parts):
            raise DesignSpaceError(f"line {lineno}: empty candidate in {raw!r}")
        if name in seen:
            raise DesignSpaceError(f"line {lineno}: duplicate dimension name {name!r}")
        seen.add(name)
        try:
            dims.append(DesignDimension(name=name, candidates=candidates))
        except DesignSpaceError as exc:
            raise DesignSpaceError(f"line {lineno}: {exc}") from None
    if not dims:
        raise DesignSpaceError("config defines no dimensions")
    return DesignSpace(dims)
