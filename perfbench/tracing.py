"""In-memory spans and counters recorded around calls into csrap.

Spans are opened and closed by the benchmark's own replay code, never inside
the package.  Each span has a name, a start, an end, a parent span and the
op it belongs to; a layer's self time is its span minus the time its child
spans cover.  Counters are recorded at the same call boundaries.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        # [span id, op id, name, parent id, start, end]
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [len(self.spans), self.op, name, self._stack[-1] if self._stack else None, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        with self.span(name):
            return fn(*args)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def self_by_name(self) -> dict[str, float]:
        """Total self seconds per span name: each span minus its children."""
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[5] - s[4]
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s[2]] = totals.get(s[2], 0.0) + own[s[0]]
        return totals

    def root_spans(self) -> dict[int, list[Any]]:
        """The first parentless span of every op (op id -> span)."""
        roots: dict[int, list[Any]] = {}
        for s in self.spans:
            if s[3] is None:
                roots.setdefault(s[1], s)
        return roots

    def children_seconds(self, span_id: int) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == span_id)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, op, name, parent, start, end in self.spans:
                fh.write(
                    json.dumps({"id": sid, "op": op, "name": name, "parent": parent, "start": start, "end": end})
                    + "\n"
                )


class NullTracer(Tracer):
    """The same replay with no spans and no counters, to price the tracing."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        return fn(*args)

    def count(self, key: str, amount: float = 1) -> None:
        pass
