"""In-memory span recorder for the traced benchmark run.

Functions are timed from outside: :meth:`Tracer.patch` swaps a wrapped
function in at a module attribute and :meth:`Tracer.restore` puts every
original back.  A span is one call (or, for a lazy slice iterator, one
``next``); spans nest through a stack, so the recorder assumes one
thread (``MVSWEEP_JOBS=1``).  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One timed interval; ``parent`` indexes the enclosing span."""

    name: str
    start: float
    parent: int | None
    run: int
    view: int | None
    end: float = float("nan")
    child_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by direct children."""
        return self.duration - self.child_s


class Tracer:
    """Records nested spans and undoes its own patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, view: int | None = None):
        """Time the body as a child of the innermost open span.

        ``view`` defaults to the parent's, so work pulled inside a view's
        sweep is attributed to that view.
        """
        parent = self._stack[-1] if self._stack else None
        if view is None and parent is not None:
            view = self.spans[parent].view
        sp = Span(name, time.perf_counter(), parent, self.run, view)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += sp.duration

    def wrap(self, fn, name: str, after=None):
        """``fn`` with each call timed as a span named ``name``.

        ``after(span, result, *args, **kwargs)`` runs once the span has
        closed, so counting work is not charged to the layer.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if after is not None:
                after(sp, result, *args, **kwargs)
            return result
        return traced

    def wrap_stream(self, fn, name: str, after=None):
        """Like :meth:`wrap` for a function returning a lazy iterator.

        Each ``next`` on the returned iterator is one span, so producers
        nest inside the consumer that pulls from them.
        ``after(span, item, *args, **kwargs)`` sees every item.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._pull(iter(fn(*args, **kwargs)), name, after, args, kwargs)
        return traced

    def _pull(self, items, name, after, args, kwargs):
        while True:
            with self.span(name) as sp:
                try:
                    item = next(items)
                except StopIteration:
                    return
            if after is not None:
                after(sp, item, *args, **kwargs)
            yield item

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self, run: int) -> dict[str, dict[str, float]]:
        """Per span name in one run: ``calls``, summed ``self_s`` and counts."""
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            if sp.run != run:
                continue
            agg = out.setdefault(sp.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += sp.self_s
            for key, value in sp.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path: Path) -> None:
        """Write one JSON object per span."""
        with open(path, "w") as fh:
            for index, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": sp.name, "parent": sp.parent,
                    "run": sp.run, "view": sp.view, "start": sp.start,
                    "end": sp.end, "self_s": sp.self_s, "counts": sp.counts,
                }) + "\n")
