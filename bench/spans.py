"""In-memory spans and step clocks installed around ocuseg's public callables.

Nothing under ``src/`` knows about this module: every hook is installed by
rebinding a public callable at the name its callers look it up by (a
module global such as ``ocuseg.pipeline.detect_eye_heuristic`` or a class
attribute such as ``ocuseg.layers.Conv2d.forward``) and is undone by
``Patches.restore``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Patches:
    """Rebinds attributes and remembers the originals so they can be put back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class Tracer:
    """Spans ``[name, start, end, parent, attrs]`` kept in a list.

    ``parent`` is the index of the enclosing span or -1; ``attrs`` is a
    dict filled by ``on_exit`` hooks (FLOPs, bytes, outcome flags) or None.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.patches = Patches()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def trace(self, owner: object, attr: str, name: str | Callable,
              on_exit: Callable | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or ``name(*args)``; ``on_exit(attrs, args,
        result)`` runs after the span is closed, so its cost is not
        attributed to the callee.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                idx = tracer._open(name(*args) if callable(name) else name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_exit is not None:
                    attrs = tracer.spans[idx][4] = {}
                    on_exit(attrs, args, result)
                return result
            return wrapper

        self.patches.wrap(owner, attr, make)

    def restore(self) -> None:
        self.patches.restore()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed attrs."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": defaultdict(float)})
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            for k, v in (attrs or {}).items():
                row["attrs"][k] += v
        return out

    def children(self, name: str, parent_name: str) -> tuple[int, float]:
        """Calls and seconds of spans ``name`` directly inside ``parent_name``."""
        calls, total = 0, 0.0
        for n, start, end, parent, _ in self.spans:
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name:
                calls += 1
                total += end - start
        return calls, total

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, **({"attrs": a} if a else {})}
                for n, s, e, p, a in self.spans]


class StepClock:
    """Durations of a workload's timed unit, taken between two hook points."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._start: float | None = None

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        if self._start is not None:
            self.durations.append(time.perf_counter() - self._start)
            self._start = None

    def cancel(self) -> None:
        self._start = None

    def hook(self, patches: Patches, owner: object, attr: str,
             before: Callable[[], None] | None = None,
             after: Callable[[], None] | None = None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before()
                result = original(*args, **kwargs)
                if after is not None:
                    after()
                return result
            return wrapper

        patches.wrap(owner, attr, make)
