"""Observability: metric registry, tracing spans, telemetry sinks, reports.

Everything here defaults *off*: trainers, the platform, and the simulator
accept an optional :class:`Telemetry` and fall back to the shared no-op
implementation when none is given, so the public training APIs are unchanged
unless a collector is passed.  See ``docs/OBSERVABILITY.md`` for the metric
name/label schema and the JSONL record format.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .metrics import (
        DEFAULT_BUCKETS,
        Counter,
        Gauge,
        Histogram,
        MetricRegistry,
        Series,
        parse_prometheus,
    )
    from .dashboard import render_dashboard
    from .events import (
        EVENT_KINDS,
        EVENT_SCHEMA_VERSION,
        NULL_EVENT_LOG,
        EventLog,
        NullEventLog,
        RunRecord,
        read_events,
    )
    from .regress import Regression, run_gate
    from .report import load_records, render_report, summarize
    from .sink import JsonlFileSink, MemorySink, StdoutSink, TelemetrySink
    from .telemetry import (
        NULL_TELEMETRY,
        NullTelemetry,
        Telemetry,
        resolve,
        run_metadata,
    )
    from .tracing import (
        NULL_TRACER,
        NullTracer,
        Span,
        SpanRecord,
        Tracer,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".metrics": (
                "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram",
                "MetricRegistry", "Series", "parse_prometheus",
            ),
            ".dashboard": ("render_dashboard",),
            ".events": (
                "EVENT_KINDS", "EVENT_SCHEMA_VERSION", "NULL_EVENT_LOG",
                "EventLog", "NullEventLog", "RunRecord", "read_events",
            ),
            ".regress": ("Regression", "run_gate"),
            ".report": ("load_records", "render_report", "summarize"),
            ".sink": (
                "JsonlFileSink", "MemorySink", "StdoutSink", "TelemetrySink",
            ),
            ".telemetry": (
                "NULL_TELEMETRY", "NullTelemetry", "Telemetry", "resolve",
                "run_metadata",
            ),
            ".tracing": (
                "NULL_TRACER", "NullTracer", "Span", "SpanRecord", "Tracer",
            ),
        },
    )

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "parse_prometheus",
    "Span",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "RunRecord",
    "read_events",
    "render_dashboard",
    "Regression",
    "run_gate",
    "TelemetrySink",
    "JsonlFileSink",
    "StdoutSink",
    "MemorySink",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "resolve",
    "run_metadata",
    "load_records",
    "summarize",
    "render_report",
]
