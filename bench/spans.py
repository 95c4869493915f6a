"""In-memory span recording around ambcsim's layer boundaries.

Wrappers are installed from here, at the module attribute the caller
looks up (``ambcsim.harness.group_users`` is what ``evaluate_mode``
calls), so the program itself is not edited.  Spans are kept in a list
and analysed or dumped when the run ends.
"""

import contextlib
import functools
import json
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent      # index of the enclosing span, or -1
        self.start = start
        self.end = start
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call, nested by call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped to record a span; ``attrs(args, result)`` may
        return a dict of counts to attach, computed after the span ends."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return wrapper

    def self_times(self):
        """Per span: its duration minus the time its direct children took."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "attrs": s.attrs}))
                fh.write("\n")


@contextlib.contextmanager
def patched(targets):
    """Temporarily set ``module.name = value`` for each (module, name,
    value); the original attributes are restored on exit."""
    saved = []
    try:
        for module, name, value in targets:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)
