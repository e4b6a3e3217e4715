"""Metric primitives and the registry.

The registry follows the Prometheus data model — :class:`Counter` (monotone),
:class:`Gauge` (last value), :class:`Histogram` (fixed cumulative buckets) —
plus a :class:`Series` type that keeps an explicit ``(step, value)`` history,
which Prometheus delegates to scraping but an offline training run needs to
retain itself (loss curves, per-round ratios).

Metrics are identified by ``(name, labels)``; asking the registry for the
same identity twice returns the same instance, so instrumentation sites can
call ``registry.counter("fl_rounds_total", algorithm="fedml").inc()`` without
caching handles.  The registry exports two ways:

* :meth:`MetricRegistry.snapshot` — a list of JSON-ready dicts, one per
  metric, suitable for a JSONL telemetry sink;
* :meth:`MetricRegistry.to_prometheus` — the text exposition format, which
  :func:`parse_prometheus` can read back (used by the round-trip tests and
  by anyone pointing a real scraper at a dumped file).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "parse_prometheus",
]

#: Default histogram bucket upper edges (seconds-scale, log-spaced).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(items: LabelItems, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(items) + list(extra)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing count (events, bytes, drops)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def expose(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_format(self.value)}"]


class Gauge:
    """A value that can go up and down (participants, queue depth)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def expose(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_format(self.value)}"]


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus ``le`` semantics).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``; an implicit
    ``+Inf`` bucket equals ``count``.  Buckets are fixed at construction —
    no rebinning — so merging exports across runs stays well-defined.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "bucket_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.labels = labels
        self.buckets = edges
        self.bucket_counts = [0] * len(edges)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "bucket_counts": list(self.bucket_counts),
            "sum": self.sum,
            "count": self.count,
        }

    def expose(self) -> List[str]:
        lines = []
        for edge, cumulative in zip(self.buckets, self.bucket_counts):
            tag = _render_labels(self.labels, [("le", _format(edge))])
            lines.append(f"{self.name}_bucket{tag} {cumulative}")
        inf_tag = _render_labels(self.labels, [("le", "+Inf")])
        lines.append(f"{self.name}_bucket{inf_tag} {self.count}")
        lines.append(f"{self.name}_sum{_render_labels(self.labels)} {_format(self.sum)}")
        lines.append(f"{self.name}_count{_render_labels(self.labels)} {self.count}")
        return lines


class Series:
    """An explicit ``(step, value)`` time series (loss curves, ratios)."""

    kind = "series"
    __slots__ = ("name", "labels", "steps", "values")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.steps: List[float] = []
        self.values: List[float] = []

    def observe(self, step: float, value: float) -> None:
        self.steps.append(float(step))
        self.values.append(float(value))

    def last(self) -> float:
        if not self.values:
            raise KeyError(f"series '{self.name}' is empty")
        return self.values[-1]

    def snapshot(self) -> dict:
        return {
            "type": "series",
            "name": self.name,
            "labels": dict(self.labels),
            "steps": list(self.steps),
            "values": list(self.values),
        }

    def expose(self) -> List[str]:
        # Prometheus has no history type; expose the latest sample only.
        if not self.values:
            return []
        return [f"{self.name}{_render_labels(self.labels)} {_format(self.values[-1])}"]


class MetricRegistry:
    """Get-or-create home for every metric of one run."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    # -- accessors ------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_items(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"metric '{name}' already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(
            name, key[1], buckets=DEFAULT_BUCKETS if buckets is None else buckets
        )
        self._metrics[key] = metric
        return metric

    def series(self, name: str, **labels: str) -> Series:
        return self._get(Series, name, labels)

    def _get(self, cls, name: str, labels: Dict[str, str]):
        key = (name, _label_items(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric '{name}' already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, key[1])
        self._metrics[key] = metric
        return metric

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str, **labels: str):
        """Return the metric if registered, else ``None`` (no creation)."""
        return self._metrics.get((name, _label_items(labels)))

    # -- export ---------------------------------------------------------
    def snapshot(self) -> List[dict]:
        """JSON-ready records for every metric, in registration order."""
        return [m.snapshot() for m in self._metrics.values()]

    def to_prometheus(self) -> str:
        """Text exposition format, grouped by metric name with TYPE lines."""
        lines: List[str] = []
        typed: set = set()
        for metric in self._metrics.values():
            if metric.name not in typed:
                kind = "gauge" if metric.kind == "series" else metric.kind
                lines.append(f"# TYPE {metric.name} {kind}")
                typed.add(metric.name)
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse text exposition back into ``{'name{k="v"}': value}``.

    Inverse of :meth:`MetricRegistry.to_prometheus` for the sample lines it
    emits (comments are skipped); used to verify the format round-trips.
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, raw = line.rpartition(" ")
        value = float("inf") if raw == "+Inf" else float(raw)
        samples[series] = value
    return samples
