"""Spans and counters recorded around calls into the package's modules.

Nothing inside ``labeltransfer`` is changed on disk: :func:`patched` swaps a
module attribute for a wrapper for the duration of a ``with`` block and puts
the original back afterwards. A wrapper must replace the name where the
caller looks it up (``pipeline.gromov_wasserstein_distances``, not
``gw.gromov_wasserstein_distances``), because ``pipeline`` binds the names it
imports at import time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.name = value`` for each (owner, name, value)."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    """In-memory spans (name, start, end, parent, run id) plus named counters.

    Spans are kept as tuples and written out once, after the run; the
    per-round summary gives each span name its call count, inclusive time
    and self time (inclusive minus the time covered by its child spans).
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, round)
        self.counters: dict[str, float] = defaultdict(float)
        self.seen: set = set()  # keys seen earlier in this round
        self.round = 0
        self._stack: list[int] = []
        self._child_time: dict[int, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self._incl: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)

    def start_round(self, index: int):
        self.round = index
        self.counters.clear()
        self.seen.clear()
        self._self.clear()
        self._incl.clear()
        self._calls.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)  # reserve the id so children can point to it
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self._incl[name] += duration
            self._self[name] += duration - self._child_time.pop(span_id, 0.0)
            self._calls[name] += 1
            if parent >= 0:
                self._child_time[parent] += duration
            self.spans[span_id] = (span_id, name, start, end, parent, self.round)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` may count."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds (this round)."""
        return {
            name: {"calls": self._calls[name], "incl_s": self._incl[name], "self_s": self._self[name]}
            for name in self._calls
        }

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, rnd in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "round": rnd, "id": span_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
