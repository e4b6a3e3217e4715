"""Tests for the tracing spans and ring buffer."""

import pytest

from repro.obs import NULL_TRACER, Tracer


class FakeClock:
    """Deterministic monotone clock: each read advances by ``tick``."""

    def __init__(self, tick=1.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        value = self.now
        self.now += self.tick
        return value


class TestNesting:
    def test_paths_and_depths(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("fit"):
            with tracer.span("round"):
                with tracer.span("local_steps"):
                    pass
                with tracer.span("aggregate"):
                    pass
        paths = [r.path for r in tracer.records()]
        assert paths == [
            "fit/round/local_steps",
            "fit/round/aggregate",
            "fit/round",
            "fit",
        ]
        depths = {r.name: r.depth for r in tracer.records()}
        assert depths == {"fit": 0, "round": 1, "local_steps": 2, "aggregate": 2}

    def test_children_close_before_parents(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.records("outer")[0]
        inner = tracer.records("inner")[0]
        assert inner.end <= outer.end
        assert inner.start >= outer.start

    def test_manual_spans_spanning_loop_iterations(self):
        tracer = Tracer(clock=FakeClock())
        round_span = tracer.span("round")
        for _ in range(3):
            with tracer.span("step"):
                pass
        round_span.end()
        assert [r.name for r in tracer.records()] == [
            "step", "step", "step", "round",
        ]
        assert all(r.path == "round/step" for r in tracer.records("step"))

    def test_end_is_idempotent(self):
        tracer = Tracer(clock=FakeClock())
        span = tracer.span("s")
        span.end()
        span.end()
        assert len(tracer.records("s")) == 1

    def test_ending_parent_closes_forgotten_children(self):
        tracer = Tracer(clock=FakeClock())
        parent = tracer.span("parent")
        tracer.span("orphan")  # never explicitly ended
        parent.end()
        assert [r.name for r in tracer.records()] == ["orphan", "parent"]
        assert tracer.active_depth == 0


class TestTiming:
    def test_duration_from_clock(self):
        tracer = Tracer(clock=FakeClock(tick=2.0))
        with tracer.span("s"):
            pass
        record = tracer.records("s")[0]
        assert record.duration == pytest.approx(2.0)

    def test_attributes_recorded(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", algorithm="fedml") as span:
            span.set(participants=8)
        record = tracer.records("s")[0]
        assert record.attributes == {"algorithm": "fedml", "participants": 8}


class TestRingBuffer:
    def test_oldest_records_evicted(self):
        tracer = Tracer(ring_size=3, clock=FakeClock())
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]

    def test_zero_ring_size_disables_retention(self):
        tracer = Tracer(ring_size=0, clock=FakeClock())
        with tracer.span("s"):
            pass
        assert tracer.records() == []

    def test_on_close_still_fires_without_retention(self):
        seen = []
        tracer = Tracer(ring_size=0, on_close=seen.append, clock=FakeClock())
        with tracer.span("s"):
            pass
        assert [r.name for r in seen] == ["s"]


class TestNullTracer:
    def test_shared_span_and_no_records(self):
        span = NULL_TRACER.span("anything", key="value")
        assert span is NULL_TRACER.span("other")
        with span:
            pass
        span.end()
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.active_depth == 0

    def test_span_record_to_dict(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("s"):
            pass
        record = tracer.records("s")[0].to_dict()
        assert record["type"] == "span"
        assert record["name"] == "s"
        assert record["duration"] == record["end"] - record["start"]


class TestRingEviction:
    def test_spans_dropped_counts_evictions(self):
        tracer = Tracer(ring_size=3, clock=FakeClock())
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.spans_dropped == 2
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]

    def test_no_drops_while_ring_has_room(self):
        tracer = Tracer(ring_size=8, clock=FakeClock())
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.spans_dropped == 0

    def test_evicted_spans_still_reach_on_close(self):
        # the ring bounds retention, not the stream: a sink sees everything
        seen = []
        tracer = Tracer(ring_size=1, on_close=seen.append, clock=FakeClock())
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        assert len(seen) == 3
        assert tracer.spans_dropped == 2
