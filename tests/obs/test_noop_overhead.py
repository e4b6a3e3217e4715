"""Overhead guard: disabled telemetry must stay out of the hot path.

Strategy: measure the per-call cost of the no-op primitives directly (a
micro-benchmark large enough to be stable), count how many instrumentation
calls a short FedAvg run really makes, charge that count times an explicit
safety factor, and assert the implied total is under the budget fraction of
the run's measured wall time.  This is deterministic where a run-vs-run
wall-clock diff would be noise-dominated, while still failing if someone
makes the no-op path allocate, lock, or read a clock.
"""

from repro.core import FedAvg, FedAvgConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.nn import LogisticRegression
from repro.obs import NULL_TELEMETRY
from repro.obs.telemetry import NullTelemetry

ITERATIONS = 10
NODES = 5
#: instrumentation calls the measured run makes, as counted below
COUNTED = ("span", "counter", "gauge")
#: headroom on the counted calls.  The run makes ~20; at x25 the guard sits
#: near a quarter of its budget, so noise does not trip it, while a no-op
#: path about 4x slower than today's crosses the budget and fails.
SAFETY_FACTOR = 25


def run_fedavg():
    federated = generate_synthetic(SyntheticConfig(num_nodes=NODES, seed=0))
    model = LogisticRegression(60, 10)
    trainer = FedAvg(
        model,
        FedAvgConfig(learning_rate=0.05, t0=5, total_iterations=ITERATIONS),
    )
    return trainer.fit(federated, list(range(NODES)))


def count_noop_calls(monkeypatch):
    """How many ``COUNTED`` no-op telemetry calls one run makes."""
    calls = {"count": 0}
    for name in COUNTED:
        real = getattr(NullTelemetry, name)

        def counting(self, *args, _real=real, **kwargs):
            calls["count"] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(NullTelemetry, name, counting)
    run_fedavg()
    monkeypatch.undo()
    return calls["count"]


def touch_noop_telemetry():
    """One instrumentation site: a span plus three metric calls."""
    with NULL_TELEMETRY.span("round", algorithm="fedavg"):
        NULL_TELEMETRY.counter("fl_rounds_total", algorithm="fedavg").inc()
        NULL_TELEMETRY.counter("fl_bytes_up_total").inc(1024)
        NULL_TELEMETRY.gauge("fl_participants").set(NODES)


def test_noop_telemetry_overhead_under_budget(
    best_of, noop_overhead_budget, monkeypatch
):
    real_calls = count_noop_calls(monkeypatch)
    assert real_calls > 0  # the run is instrumented; else the guard is void
    run_seconds = best_of(run_fedavg, repeats=3)

    sites = 20_000
    micro = best_of(
        lambda: [touch_noop_telemetry() for _ in range(sites)], repeats=3
    )
    per_call = micro / (sites * 4)  # a site is one span and three metrics

    overhead = per_call * real_calls * SAFETY_FACTOR

    assert overhead < noop_overhead_budget * run_seconds, (
        f"no-op telemetry would cost {overhead * 1e3:.3f} ms "
        f"({real_calls} calls x{SAFETY_FACTOR}) against a "
        f"{run_seconds * 1e3:.1f} ms run "
        f"({overhead / run_seconds:.1%} > {noop_overhead_budget:.0%})"
    )


def test_noop_span_returns_shared_object():
    # The no-op path must not allocate per call.
    a = NULL_TELEMETRY.span("x")
    b = NULL_TELEMETRY.span("y", attr=1)
    assert a is b
    assert NULL_TELEMETRY.counter("c") is NULL_TELEMETRY.gauge("g")


class _CountingStrategy:
    """Minimal strategy: counts local steps, needs no model or data."""

    def __init__(self):
        self.steps = 0

    def bind_node_rng(self, rng):
        self.rng = rng

    def local_step(self, node):
        self.steps += 1


class _StubNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.params = None
        self.local_steps = 0
        self.gradient_evaluations = 0


def test_disabled_serial_run_block_reads_no_clock(monkeypatch):
    # With telemetry off the executor must run the bare pre-observability
    # loop: zero perf_counter reads, zero span/event bookkeeping.
    from repro.engine import SerialExecutor, executors

    reads = {"count": 0}
    real = executors.time.perf_counter

    def counting_clock():
        reads["count"] += 1
        return real()

    monkeypatch.setattr(executors.time, "perf_counter", counting_clock)
    strategy = _CountingStrategy()
    SerialExecutor().run_block(
        strategy,
        [_StubNode(i) for i in range(4)],
        3,
        block_index=0,
        base_seed=0,
        telemetry=None,
    )
    assert strategy.steps == 12
    assert reads["count"] == 0
