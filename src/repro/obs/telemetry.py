"""The telemetry facade the rest of the codebase talks to.

Instrumented code takes an optional ``telemetry`` argument and resolves it
with :func:`resolve`::

    tel = resolve(telemetry)          # Telemetry | None -> Telemetry-like
    with tel.span("round"):
        tel.counter("fl_rounds_total", algorithm="fedml").inc()

When no telemetry was passed, :data:`NULL_TELEMETRY` comes back: every call
is a no-op against shared singletons, so the disabled path costs a couple of
attribute lookups per instrumentation site (guarded by the overhead test in
``tests/obs``).  When a real :class:`Telemetry` is passed, spans stream to
its sink as they close and metric state is exported on :meth:`Telemetry.flush`.

The metric-name/label schema is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from typing import Optional

from .events import NULL_EVENT_LOG, EventLog
from .metrics import MetricRegistry
from .sink import MemorySink, TelemetrySink
from .tracing import NULL_TRACER, SpanRecord, Tracer

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve",
    "run_metadata",
]


def git_sha() -> Optional[str]:
    """Best-effort current commit SHA; ``None`` outside a git checkout."""
    import subprocess

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_metadata(
    config: Optional[dict] = None, seed: Optional[int] = None
) -> dict:
    """The reproducibility header written as the first record of a run."""
    return {
        "type": "meta",
        "timestamp": time.time(),
        "timestamp_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "git_sha": git_sha(),
        "seed": seed,
        "config": config or {},
    }


class Telemetry:
    """Bundles a metric registry, a tracer, and a sink for one run."""

    enabled = True

    def __init__(
        self,
        sink: Optional[TelemetrySink] = None,
        registry: Optional[MetricRegistry] = None,
        tracer: Optional[Tracer] = None,
        span_ring_size: int = 4096,
        node_fingerprints: bool = False,
    ) -> None:
        #: when set, executors attach a ``params_fp`` content hash to every
        #: ``node_result`` event (used by ``repro check-determinism`` to
        #: localize a divergence; off by default — hashing costs time).
        self.node_fingerprints = node_fingerprints
        self.sink = sink if sink is not None else MemorySink()
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(ring_size=span_ring_size, on_close=self._emit_span)
        )
        #: the run's ordered event stream (see :mod:`repro.obs.events`)
        self.events = EventLog(self.sink.emit)
        self._closed = False
        self._dropped_exported = 0

    # -- tracing --------------------------------------------------------
    def span(self, name: str, **attributes: object):
        return self.tracer.span(name, **attributes)

    def _emit_span(self, record: SpanRecord) -> None:
        self.sink.emit(record.to_dict())

    # -- metrics (delegate to the registry) -----------------------------
    def counter(self, name: str, **labels: str):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels: str):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def series(self, name: str, **labels: str):
        return self.registry.series(name, **labels)

    # -- lifecycle ------------------------------------------------------
    def emit_metadata(
        self, config: Optional[dict] = None, seed: Optional[int] = None
    ) -> None:
        self.sink.emit(run_metadata(config=config, seed=seed))

    def emit(self, record: dict) -> None:
        """Pass an arbitrary record straight through to the sink."""
        self.sink.emit(record)

    def flush(self) -> None:
        """Export the current metric state to the sink (one record each)."""
        # Surface ring-buffer eviction before snapshotting so the dropped
        # count rides along in the export.  Incremental (delta since the
        # last flush) so repeated flushes never double-count.
        dropped = self.tracer.spans_dropped
        if dropped > self._dropped_exported:
            self.registry.counter("obs_spans_dropped_total").inc(
                dropped - self._dropped_exported
            )
            self._dropped_exported = dropped
        for record in self.registry.snapshot():
            self.sink.emit(record)

    def close(self) -> None:
        """Flush and close the sink; safe to call more than once."""
        if self._closed:
            return
        self.flush()
        self.sink.close()
        self._closed = True


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram/series."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def add(self, amount: float) -> None:
        return None

    def observe(self, *args: float) -> None:
        return None


class NullTelemetry:
    """Disabled telemetry: the default for every instrumented code path."""

    enabled = False
    node_fingerprints = False
    __slots__ = ()
    _metric = _NullMetric()
    tracer = NULL_TRACER
    events = NULL_EVENT_LOG

    def span(self, name: str, **attributes: object):
        return NULL_TRACER._span

    def counter(self, name: str, **labels: str) -> _NullMetric:
        return self._metric

    def gauge(self, name: str, **labels: str) -> _NullMetric:
        return self._metric

    def histogram(self, name: str, buckets=None, **labels: str) -> _NullMetric:
        return self._metric

    def series(self, name: str, **labels: str) -> _NullMetric:
        return self._metric

    def emit_metadata(self, config=None, seed=None) -> None:
        return None

    def emit(self, record: dict) -> None:
        return None

    def flush(self) -> None:
        return None

    def close(self) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


def resolve(telemetry: Optional[Telemetry]) -> "Telemetry | NullTelemetry":
    """Map ``None`` (telemetry off) to the shared no-op implementation."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
