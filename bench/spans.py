"""Layer spans recorded from outside the program, by wrapping module attributes.

The benchmark may not change `src/`, so each layer is timed at the boundary
where one module calls another: the wrapper replaces the attribute that the
calling module looks up (for example `factorspec.estimator.bin_curve`), and
records a span around every call. A span's self time is its duration minus
the part covered by wrapped calls made inside it.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Totals for one span name."""

    calls: int = 0
    total_s: float = 0.0  # outermost spans only, so recursion counts once
    self_s: float = 0.0
    calls_with_children: int = 0  # calls that reached a wrapped layer below


class Tracer:
    """In-memory span aggregator. Spans nest through an explicit stack, so a
    parent learns how much of its interval its children covered."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list] = []  # [name, start, child_s, children]
        self._open: dict[str, int] = {}

    def enter(self, name: str) -> list:
        if self._stack:
            self._stack[-1][3] += 1
        frame = [name, self.clock(), 0.0, 0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def exit(self, frame: list) -> None:
        duration = self.clock() - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name = frame[0]
        self._open[name] -= 1
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.self_s += duration - frame[2]
        if not self._open[name]:
            st.total_s += duration
        if frame[3]:
            st.calls_with_children += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return traced


class Patches:
    """Attribute replacements that can be undone. A target whose attribute
    no longer exists is skipped, so a refactor that removes a call site
    leaves its layer absent instead of breaking the benchmark."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Replace `owner.attr` by `make_wrapper(original)`; False if absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
