"""In-memory spans around calls into the program's public functions.

A span has a name, a start, an end and a parent. Spans are kept in memory and
written out when the run ends. The program is not edited: `Tracer.patch`
swaps a module attribute (the name a caller looks up) for a wrapper that
records a span, and `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, name, start ns, end ns)
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((span_id, parent, name, 0, 0))
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: object, attr: str, name: str,
              count: Callable[..., int] | None = None) -> None:
        """Record a span named ``name`` on every call of ``owner.attr``.

        ``count(*args)`` adds to the counter ``name`` (no span) instead,
        for functions called too often to span.
        """
        original = getattr(owner, attr)
        if count is None:
            replacement = self.wrap(name, original)
        else:
            counts = self.counts

            @functools.wraps(original)
            def replacement(*args, **kwargs):
                counts[name] += count(*args)
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per span name: total ns, and self ns (minus direct children)."""
        total: dict[str, int] = defaultdict(int)
        child: dict[int, int] = defaultdict(int)
        for span_id, parent, name, start, end in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, int] = defaultdict(int)
        for span_id, parent, name, start, end in self.spans:
            own[name] += end - start - child[span_id]
        return dict(total), dict(own)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
