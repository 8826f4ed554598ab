"""In-memory spans for the traced run.

A span has an id, a name, a start, an end, a parent span id and the id of
the round (the trace) it belongs to.  Spans stay in a list while the run
goes and are written out once, when it ends.  The plain run uses
:data:`OFF`, whose spans cost one method call each.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trace_id = 0

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        record = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "parent": parent,
            "name": name,
            "start": None,
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def wrapped(self, targets):
        """Replace each ``(owner, attribute, span name)`` by a wrapper that
        opens a span around the call, and put the originals back after."""
        saved = []
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                _describe(record["attrs"], result, args)
                return result

        return call

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def _describe(attrs, result, args):
    """Counts a wrapped call leaves on its span: the instances and status of
    a report, and the bytes of the text parsed or written."""
    if hasattr(result, "checked"):
        attrs["instances"] = result.checked
        attrs["status"] = result.status
    text = result if isinstance(result, str) else args[0] if args and isinstance(args[0], str) else None
    if text is not None:
        attrs["bytes"] = len(text.encode("utf-8"))


class _Off:
    enabled = False
    trace_id = 0

    def span(self, name, **attrs):
        return contextlib.nullcontext()

    def wrapped(self, targets):
        return contextlib.nullcontext()


OFF = _Off()
