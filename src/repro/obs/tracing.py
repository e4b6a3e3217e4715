"""Nested wall-clock tracing spans.

A :class:`Tracer` produces :class:`Span` objects that time a region of code
and remember where they sit in the call structure::

    with tracer.span("round"):
        with tracer.span("local_steps"):
            ...
        with tracer.span("aggregate"):
            ...

Spans can also be managed manually (``s = tracer.span("round") ... s.end()``)
for regions that do not nest lexically, e.g. a "round" that covers several
loop iterations.  Finished spans land in an in-memory ring buffer (bounded,
oldest evicted) and are handed to an optional ``on_close`` callback, which is
how the telemetry layer streams them to a sink.

:data:`NULL_TRACER` is the disabled twin: ``span()`` returns a shared no-op
object whose enter/exit/end do nothing, so instrumented hot paths cost one
attribute lookup and one call when telemetry is off.

Trace collection only reads clocks and appends records; it never touches
model state or RNG streams, which is what keeps traced runs bit-identical
to untraced ones (asserted against the golden traces).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


@dataclass(frozen=True)
class SpanRecord:
    """Immutable summary of one finished span."""

    name: str
    path: str
    start: float
    end: float
    depth: int
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "attributes": dict(self.attributes),
        }


class Span:
    """A live timed region.  Starts at creation; ends on ``end()``/``__exit__``."""

    __slots__ = ("_tracer", "name", "path", "depth", "attributes", "start", "_ended")

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        parent = tracer._stack[-1] if tracer._stack else None
        self.path = f"{parent.path}/{name}" if parent is not None else name
        self.depth = parent.depth + 1 if parent is not None else 0
        self.start = tracer._clock()
        self._ended = False
        tracer._stack.append(self)

    def set(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def end(self) -> None:
        """Close the span (idempotent); closes any forgotten children first."""
        if self._ended:
            return
        tracer = self._tracer
        while tracer._stack and tracer._stack[-1] is not self:
            tracer._stack[-1].end()
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        self._ended = True
        tracer._finish(
            SpanRecord(
                name=self.name,
                path=self.path,
                start=self.start,
                end=tracer._clock(),
                depth=self.depth,
                attributes=self.attributes,
            )
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class Tracer:
    """Produces nested spans and retains the most recent finished ones."""

    def __init__(
        self,
        ring_size: int = 4096,
        on_close: Optional[Callable[[SpanRecord], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if ring_size < 0:
            raise ValueError("ring_size must be non-negative")
        self._clock = clock
        self._stack: List[Span] = []
        self._on_close = on_close
        #: ring buffer of finished spans (oldest evicted past ``ring_size``)
        self.finished: deque = deque(maxlen=ring_size or None)
        self._retain = ring_size > 0
        #: finished spans evicted from the ring before anyone read them;
        #: exported as ``obs_spans_dropped_total`` on telemetry flush so a
        #: truncated trace is visible instead of silently partial
        self.spans_dropped = 0

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def span(self, name: str, **attributes: object) -> Span:
        return Span(self, name, attributes)

    def records(self, name: Optional[str] = None) -> List[SpanRecord]:
        if name is None:
            return list(self.finished)
        return [r for r in self.finished if r.name == name]

    def _finish(self, record: SpanRecord) -> None:
        if self._retain:
            if len(self.finished) == self.finished.maxlen:
                self.spans_dropped += 1
            self.finished.append(record)
        if self._on_close is not None:
            self._on_close(record)


class _NullSpan:
    """Shared do-nothing span; safe to enter/exit/end any number of times."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None

    def end(self) -> None:
        return None

    def set(self, **attributes: object) -> "_NullSpan":
        return self


class NullTracer:
    """Disabled tracer: no clock reads, no allocation, no retention."""

    __slots__ = ()
    _span = _NullSpan()
    spans_dropped = 0

    def span(self, name: str, **attributes: object) -> _NullSpan:
        return self._span

    def records(self, name: Optional[str] = None) -> List[SpanRecord]:
        return []

    @property
    def active_depth(self) -> int:
        return 0


NULL_TRACER = NullTracer()
