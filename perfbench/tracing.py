"""In-memory span tracing and timing hooks around mdesign's public functions.

Nothing here edits the program: hooks replace a function or method where the
calling module looks it up (a module global or a class attribute) and put the
original back when the ``Patcher`` context exits.

``Tracer`` records one span per wrapped call (name, start, end, parent span,
instance id) in flat arrays, and keeps per-name call counts and self time
(the span's duration minus the time its child spans cover) as it goes, so
per-layer numbers need no pass over the spans.  ``Marks`` is the light
timing used outside traced runs.
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable


class Patcher:
    """Replace attributes and restore every original on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)``; classmethods stay classmethods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))


class Marks:
    """Light timing hooks: a timestamp at each entry to and exit from a hooked call.

    Consecutive timestamps cut a run into intervals.  Each interval belongs to
    the outermost hooked call that covers it (an index into ``kinds``), or to
    no call (-1).  A run of deterministic work cuts into the same intervals
    on every repeat, so repeats can be compared interval by interval.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.times = array("d")
        self.owners = array("i")  # owner of the interval that starts at times[i]
        self.kinds: list[str] = []  # kind of each outermost hooked call, in order
        self._depth = 0

    def hook(self, kind: str) -> Callable[[Callable], Callable]:
        """Hook factory; ``kind`` labels the call when no other hooked call covers it."""

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._depth == 0:
                    self.kinds.append(kind)
                top = len(self.kinds) - 1
                self._depth += 1
                self.owners.append(top)
                self.times.append(perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.times.append(perf_counter())
                    self._depth -= 1
                    self.owners.append(top if self._depth else -1)

            return wrapper

        return make


class Tracer:
    """Span recorder with online per-name ``calls`` and ``self_s`` totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.counters: dict[str, int] = {}
        self.instance = -1
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._name = array("i")
        self._parent = array("i")
        self._instance = array("i")
        self._start = array("d")
        self._end = array("d")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self._ids[name]

    def hook(
        self, name: str, counter: str | None = None, count: Callable | None = None
    ) -> Callable[[Callable], Callable]:
        """Hook factory recording a span named ``name`` per call.

        With ``counter`` and ``count``, ``count(result)`` is added to that
        counter after each call.
        """
        nid = self._id(name)
        if counter is not None:
            self.counters.setdefault(counter, 0)

        def make(fn: Callable) -> Callable:
            stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
            names, parents, instances = self._name, self._parent, self._instance
            starts, ends = self._start, self._end

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = len(starts)
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                instances.append(self.instance)
                ends.append(0.0)
                frame = [sid, 0.0]
                stack.append(frame)
                start = perf_counter()
                starts.append(start)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    ends[sid] = end
                    elapsed = end - start
                    calls[nid] += 1
                    total_s[nid] += elapsed
                    self_s[nid] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                if counter is not None:
                    self.counters[counter] += count(result)
                return result

            return wrapper

        return make

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        """Per-name ``(calls, self_s, total_s)`` so far, plus counters as calls."""
        out = {
            name: (self.calls[i], self.self_s[i], self.total_s[i])
            for i, name in enumerate(self.names)
        }
        for name, value in self.counters.items():
            out[name] = (value, 0.0, 0.0)
        return out

    @property
    def span_count(self) -> int:
        return len(self._start)

    def write(self, path: Path, header: dict) -> None:
        """Write a header line then one JSON line per span (gzip).

        Times are seconds from the first span's start; ``parent`` is a span
        id or -1, ``instance`` the run's attempt number.
        """
        origin = self._start[0] if self._start else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "names": names, "spans": self.span_count}) + "\n")
            for sid in range(len(self._start)):
                fh.write(
                    f'{{"id":{sid},"name":"{names[self._name[sid]]}",'
                    f'"start":{self._start[sid] - origin:.9f},"end":{self._end[sid] - origin:.9f},'
                    f'"parent":{self._parent[sid]},"instance":{self._instance[sid]}}}\n'
                )
