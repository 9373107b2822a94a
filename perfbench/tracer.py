"""Spans recorded by the benchmark around calls into the library's modules.

A span is (name, start, end, parent span, op id, attributes).  The library is
not changed: `instrument` swaps a module attribute for a recording wrapper
while the traced pass runs and puts the original back afterwards.  A call
made through any patched name, from the benchmark or from another library
module, opens a span under whichever span is open at the time.  Spans stay in
memory until `dump` writes them out as JSON lines.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass, field
from time import perf_counter_ns


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    index: int
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._op: int | None = None
        self._ops = 0

    @contextlib.contextmanager
    def span(self, name: str, op: bool = False, **attrs):
        """Record the enclosed block; `op=True` starts a new op id."""
        outer_op = self._op
        if op:
            self._ops += 1
            self._op = self._ops
        parent = self._open[-1] if self._open else None
        record = Span(name, 0, 0, len(self.spans), parent, self._op, attrs)
        self.spans.append(record)
        self._open.append(record.index)
        record.start_ns = perf_counter_ns()
        try:
            yield record
        finally:
            record.end_ns = perf_counter_ns()
            self._open.pop()
            self._op = outer_op

    def wrap(self, name: str, func, annotate=None, op: bool = False):
        """`func` recorded as span `name`; `annotate(result, args)` adds attributes."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, op=op) as record:
                result = func(*args, **kwargs)
                if annotate is not None:
                    record.attrs.update(annotate(result, args))
            return result

        traced.__wrapped__ = func
        return traced

    def self_ms(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        out = [span.ms for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                out[span.parent] -= span.ms
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Patch every (module, attribute, span name, annotate, op) in `targets`."""
    saved = []
    try:
        for module, attr, name, annotate, op in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, annotate, op))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
