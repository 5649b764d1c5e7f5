"""The benchmark's own arithmetic: percentiles and an in-memory span store.

Nothing here imports namelink, so the rules can be tested on their own.
"""

from __future__ import annotations

import math
import time
from array import array
from typing import Iterable, Sequence

# a tail percentile is reported only when this many samples lie beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def reportable_percentile(values: Sequence[float], q: float) -> float | None:
    """The q-th percentile, or None when fewer than MIN_BEYOND samples lie
    beyond it (too few to say anything about that tail)."""
    if not values or beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class Tracer:
    """Spans kept in flat arrays: name id, start, end, parent index, run id.

    Spans open and close in strict nesting order (one thread), so a stack
    gives each new span its parent.  Nothing is written until the caller
    asks for it at the end of the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self._stack: list[int] = []
        self.run_id = 0

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def __len__(self) -> int:
        return len(self.start)

    def spans_of(self, names: Iterable[str]) -> list[int]:
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        return [i for i in range(len(self)) if self.name_of[i] in wanted]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children
        (strict nesting means children never overlap)."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def covered_total(self, names: Iterable[str]) -> float:
        """Wall time inside spans of the given names, counting a span only
        when none of its ancestors carries one of those names."""
        wanted = {self._name_ids[n] for n in names if n in self._name_ids}
        inside = [False] * len(self)
        total = 0.0
        for i in range(len(self)):
            p = self.parent[i]
            parent_inside = p >= 0 and (inside[p] or self.name_of[p] in wanted)
            inside[i] = parent_inside
            if self.name_of[i] in wanted and not parent_inside:
                total += self.end[i] - self.start[i]
        return total

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line: index, name, start,
        end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\trun\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.run[i]}\n"
                )
