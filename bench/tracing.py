"""Span tracing for the benchmark's traced runs.

A Tracer wraps named functions of the `advseq` package so that each call
records a span (name, start, end, parent span, run id) plus optional work
counts. Wrapping happens from outside the package: a function is replaced
in every module that holds a reference to it, because consumers import
functions by name (`from .numerics import sigmoid`). A name that no longer
exists is recorded as absent rather than raising, so a refactor that
removes a function leaves the traced run working.

Spans stay in memory until the traced process ends; `summarize` then turns
them into per-name totals, with self time computed as a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        # each span: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.work: list[dict | None] = []
        self.absent: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append([name, self.clock(), math.nan, parent, self.run_id])
        self.work.append(None)
        stack.append(idx)
        return idx

    def end(self, idx: int, work: dict | None = None) -> None:
        self.spans[idx][2] = self.clock()
        if work:
            self.work[idx] = work
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def wrap(self, name: str, fn: Callable,
             before: Callable | None = None, after: Callable | None = None) -> Callable:
        """Return fn wrapped in a span.

        `before(args, kwargs)` may return (args, kwargs, state) to rewrite
        the call; `after(args, kwargs, result, state)` returns work counts.
        Both run inside the span, so keep them cheap.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            state = None
            try:
                if before is not None:
                    args, kwargs, state = before(args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            work = after(args, kwargs, result, state) if after is not None else None
            self.end(idx, work)
            return result
        return traced

    def install(self, package: str, targets: dict[str, tuple]) -> None:
        """Patch `module.function` names under `package`.

        targets maps "module.function" to (before, after) hooks. Every
        loaded module of the package whose attribute is the original
        function object gets the wrapper, for the rest of the process.
        """
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == package or name.startswith(package + "."))}
        for target, (before, after) in targets.items():
            mod_name, _, fn_name = target.rpartition(".")
            home = modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None or not callable(original):
                self.absent.append(target)
                continue
            wrapper = self.wrap(target, original, before, after)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered(children.get(i, []), start, end)
            for i, (name, start, end, parent, _) in enumerate(spans)]


def summarize(spans: list[list], work: list[dict | None]) -> dict[str, dict]:
    """Per span name: calls, incl_s, self_s, summed work counts and the
    list of call durations in milliseconds.

    incl_s counts only outermost calls of a name, so a function that
    reaches itself through another wrapped function is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                  "durations_ms": []})
        s["calls"] += 1
        s["self_s"] += selfs[i]
        s["durations_ms"].append((end - start) * 1e3)
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            s["incl_s"] += end - start
        for key, value in (work[i] or {}).items():
            s[key] = s.get(key, 0) + value
    return out


TAIL_LEVELS = (0.5, 0.9, 0.99, 0.999)


def tail_level(n: int, min_beyond: int = 10) -> float | None:
    """Highest percentile level with at least `min_beyond` samples above it."""
    best = None
    for q in TAIL_LEVELS:
        if n * (1.0 - q) >= min_beyond:
            best = q
    return best


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
