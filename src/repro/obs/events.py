"""The unified run event log: one ordered stream per training run.

Before this module existed a run's story was scattered: loss curves in the
registry's series, timing in span records, fault counts in counters, and
checkpoint state on disk.  The event log merges the *causality* — what
happened, in what order, to which node — into a single versioned stream of
``{"type": "event", ...}`` records emitted through the same
:class:`~repro.obs.sink.TelemetrySink` as everything else, so a run's
JSONL file doubles as its ``events.jsonl``.

Schema (version :data:`EVENT_SCHEMA_VERSION`)::

    {"type": "event", "v": 3, "seq": 17, "kind": "round_end",
     "block": 3, "t": 20, "participants": 9}

``seq`` is a per-run monotone sequence number assigned at emission time, so
the stream is totally ordered even if records are later merged or sorted.
``kind`` must be one of :data:`EVENT_KINDS`; every other field is
kind-specific (catalogued in ``docs/OBSERVABILITY.md``).  Versioning
policy: additive field changes keep ``v``; renaming/removing a field,
changing a field's meaning, or extending the closed :data:`EVENT_KINDS`
set bumps :data:`EVENT_SCHEMA_VERSION` (an old reader must skip kinds it
has no semantics for, not misfile them), and readers must skip events with
a newer version than they understand.

Version history: v1 — the original engine/fault lifecycle kinds;
v2 — the ``fleet_*`` kinds emitted by the event-driven
:class:`~repro.federated.fleet.FleetSimulator`; v3 — ``vectorized_block``
drops the two buffer-footprint fields of the retired compiled backward.

The engine and the fault subsystem treat :class:`EventLog` as their single
event bus: the :class:`~repro.engine.round_engine.RoundEngine` emits the
run/round lifecycle, executors emit per-node results and errors, and the
:class:`~repro.faults.injector.FaultInjector` (and the fleet simulator,
through the same :func:`~repro.faults.plan.record_fault`) emits every
fault decision — all through ``telemetry.events``, which is a shared no-op when telemetry
is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: One telemetry record — JSON-shaped, keys are field names.
JsonDict = Dict[str, Any]

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "RunRecord",
    "read_events",
]

#: Bump on any non-additive change to event record fields or kinds.
EVENT_SCHEMA_VERSION = 3

#: Closed set of event kinds (typos fail loudly at the emission site).
EVENT_KINDS = frozenset(
    {
        "run_start",
        "run_end",
        "round_start",
        "round_end",
        "node_result",
        "node_error",
        "fault_injected",
        "retry",
        "quarantine",
        "straggler_dropped",
        "checkpoint",
        "resume",
        "cache_hit",
        "rng_ledger",
        "vectorized_block",
        # v2: the event-driven fleet simulator's round lifecycle
        "fleet_round_start",
        "fleet_dispatch",
        "fleet_completion",
        "fleet_timeout",
        "fleet_flush",
        "fleet_round_end",
    }
)


class EventLog:
    """Orders and emits event records through a sink's ``emit``."""

    def __init__(self, emit: Callable[[JsonDict], None]) -> None:
        self._emit = emit
        self._seq = 0

    def emit(self, kind: str, **fields: object) -> None:
        """Append one event to the run stream (raises on unknown kind)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind '{kind}' (known: {sorted(EVENT_KINDS)})"
            )
        record: JsonDict = {
            "type": "event",
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "kind": kind,
        }
        record.update(fields)
        self._seq += 1
        self._emit(record)


class NullEventLog:
    """Disabled event log: the hot-path twin when telemetry is off."""

    __slots__ = ()

    def emit(self, kind: str, **fields: object) -> None:
        return None


NULL_EVENT_LOG = NullEventLog()


def read_events(records: Sequence[JsonDict]) -> List[JsonDict]:
    """Extract this reader's understood event records, in ``seq`` order.

    Events carrying a newer schema version than this build understands are
    skipped (the versioning policy above), never misinterpreted.
    """
    events = [
        r
        for r in records
        if r.get("type") == "event"
        and int(r.get("v", 0)) <= EVENT_SCHEMA_VERSION
    ]
    events.sort(key=lambda r: int(r.get("seq", 0)))
    return events


@dataclass
class RunRecord:
    """One run's telemetry JSONL parsed into its constituent streams.

    The dashboard's (and any analysis tool's) single entry point: metadata
    header, ordered events, span records, and final metric snapshots, all
    from one file — no cross-referencing of separate outputs.
    """

    meta: Optional[JsonDict] = None
    events: List[JsonDict] = field(default_factory=list)
    spans: List[JsonDict] = field(default_factory=list)
    counters: List[JsonDict] = field(default_factory=list)
    gauges: List[JsonDict] = field(default_factory=list)
    histograms: List[JsonDict] = field(default_factory=list)
    series: List[JsonDict] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Sequence[JsonDict]) -> "RunRecord":
        run = cls()
        buckets: Dict[str, List[JsonDict]] = {
            "span": run.spans,
            "counter": run.counters,
            "gauge": run.gauges,
            "histogram": run.histograms,
            "series": run.series,
        }
        for record in records:
            kind = record.get("type")
            if kind == "meta":
                run.meta = record
            elif kind in buckets:
                buckets[kind].append(record)
        run.events = read_events(records)
        return run

    # -- convenience views used by the dashboard ------------------------
    def events_of(self, *kinds: str) -> List[JsonDict]:
        wanted = set(kinds)
        return [e for e in self.events if e.get("kind") in wanted]

    def counter_value(self, name: str, **labels: str) -> float:
        """Latest exported value of one counter (0.0 when absent)."""
        value = 0.0
        for record in self.counters:
            if record.get("name") != name:
                continue
            if labels and record.get("labels", {}) != labels:
                continue
            value = float(record.get("value", 0.0))
        return value

    def find_series(self, name: str) -> Optional[JsonDict]:
        for record in self.series:
            if record.get("name") == name:
                return record
        return None
