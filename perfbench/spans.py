"""In-memory span recording through wrappers the benchmark installs itself.

The program under test is never edited: a :class:`SpanRecorder` wraps
public callables (bound per instance, or per class) so each call records a
span ``(id, parent, name, start, end)``.  The parent is the innermost span
open on the same thread, so nested layer calls form a tree and a span's
self time is its duration minus what its direct children cover.  Wrappers
exist only inside ``with recorder.installed(...)`` and are removed on exit;
untraced runs never see them.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collects spans from wrapped callables; thread-safe under the GIL."""

    def __init__(self) -> None:
        # (span_id, parent_id, name, start_s, end_s) in completion order.
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, instance_targets: Sequence[Tuple[object, str, str]] = (),
                  class_targets: Sequence[Tuple[type, str, str]] = ()
                  ) -> Iterator["SpanRecorder"]:
        """Install wrappers for the block's duration, then restore exactly.

        ``instance_targets`` are ``(obj, attribute, span_name)``: the wrapper
        shadows whatever ``obj.attribute`` resolves to (a bound method or an
        instance-level override) and the original instance attribute, if
        any, is put back afterwards.  ``class_targets`` patch the class.
        """
        missing = object()
        undo: List[Callable[[], None]] = []
        try:
            for owner, attribute, name in class_targets:
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self.wrap(original, name))
                undo.append(lambda o=owner, a=attribute, f=original: setattr(o, a, f))
            for obj, attribute, name in instance_targets:
                previous = obj.__dict__.get(attribute, missing)
                setattr(obj, attribute, self.wrap(getattr(obj, attribute), name))
                if previous is missing:
                    undo.append(lambda o=obj, a=attribute: o.__dict__.pop(a, None))
                else:
                    undo.append(lambda o=obj, a=attribute, f=previous: setattr(o, a, f))
            yield self
        finally:
            for step in reversed(undo):
                step()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Self time of every span: duration minus direct children's."""
        own = {span_id: end - start for span_id, _, _, start, end in self.spans}
        for _, parent, _, start, end in self.spans:
            if parent is not None and parent in own:
                own[parent] -= end - start
        return own

    def named(self, name: str) -> List[Tuple[int, float, float]]:
        """``(id, start, end)`` of the spans called ``name``."""
        return [(span_id, start, end) for span_id, _, span_name, start, end
                in self.spans if span_name == name]

    def descendants(self, root_id: int) -> List[int]:
        """Ids of every span below ``root_id``."""
        children: Dict[int, List[int]] = {}
        for span_id, parent, _, _, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append(span_id)
        found, frontier = [], [root_id]
        while frontier:
            nxt = children.get(frontier.pop(), [])
            found.extend(nxt)
            frontier.extend(nxt)
        return found

    def dump(self, path: str) -> None:
        """Write every span as JSON (times relative to the first start)."""
        t0 = min((start for _, _, _, start, _ in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"id": span_id, "parent": parent, "name": name,
                        "start_ms": (start - t0) * 1e3,
                        "dur_ms": (end - start) * 1e3}
                       for span_id, parent, name, start, end in self.spans],
                      handle)
