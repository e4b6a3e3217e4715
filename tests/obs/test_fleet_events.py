"""Fleet event kinds in the closed schema, v2 parsing, dashboard smoke.

ISSUE 9 satellite: the fleet simulator's round lifecycle joins the
unified event log as first-class kinds.  That means three contracts:
the kinds are in the closed ``EVENT_KINDS`` set (so typos fail loudly),
the schema version bumped to 2 (readers forward-skip what they don't
understand), and the HTML dashboard renders a fleet run — including the
buffered-aggregation rows — without special-casing.
"""

from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.obs import MemorySink, Telemetry
from repro.obs.dashboard import render_dashboard
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    RunRecord,
    read_events,
)

FLEET_KINDS = {
    "fleet_round_start",
    "fleet_dispatch",
    "fleet_completion",
    "fleet_timeout",
    "fleet_flush",
    "fleet_round_end",
}


def fleet_records(rounds=3, round_timeout_s=None):
    shards = SyntheticShardFactory(seed=0)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=1, total_iterations=rounds,
            eval_every=1, seed=0,
        ),
    )
    config = FleetConfig(
        fleet_size=300, sampled_per_round=6, rounds=rounds, local_steps=1,
        buffer_size=4, seed=0, round_timeout_s=round_timeout_s,
    )
    telemetry = Telemetry(sink=MemorySink())
    FleetSimulator(strategy, config, shards=shards,
                   telemetry=telemetry).run()
    return telemetry.sink.records


class TestFleetSchema:
    def test_fleet_kinds_are_in_the_closed_set(self):
        assert FLEET_KINDS <= EVENT_KINDS

    def test_adding_kinds_bumped_the_schema_version(self):
        # v2 added the fleet kinds; v3 removed vectorized_block fields.
        assert EVENT_SCHEMA_VERSION == 3

    def test_fleet_run_emits_only_known_v2_events(self):
        events = read_events(fleet_records())
        assert events, "fleet run produced no events"
        assert all(e["v"] == EVENT_SCHEMA_VERSION for e in events)
        assert all(e["kind"] in EVENT_KINDS for e in events)
        kinds = {e["kind"] for e in events}
        # Everything but timeout shows up in a clean run.
        assert FLEET_KINDS - {"fleet_timeout"} <= kinds

    def test_lifecycle_ordering_per_round(self):
        events = read_events(fleet_records())
        rounds = {}
        for e in events:
            if e["kind"].startswith("fleet_"):
                rounds.setdefault(e["block"], []).append(e["kind"])
        for kinds in rounds.values():
            assert kinds[0] == "fleet_round_start"
            assert kinds[-1] == "fleet_round_end"
            # dispatches precede the first completion
            assert kinds.index("fleet_dispatch") < kinds.index(
                "fleet_completion"
            )

    def test_readers_forward_skip_future_versions(self):
        records = [
            {"type": "event", "v": 1, "seq": 0, "kind": "run_start"},
            {"type": "event", "v": 3, "seq": 1, "kind": "fleet_flush",
             "block": 0},
            {"type": "event", "v": EVENT_SCHEMA_VERSION + 1, "seq": 2,
             "kind": "from_the_future"},
        ]
        events = read_events(records)
        assert [e["seq"] for e in events] == [0, 1]


class TestFleetDashboard:
    def test_dashboard_renders_fleet_run(self):
        run = RunRecord.from_records(fleet_records())
        html = render_dashboard(run, title="fleet smoke")
        assert "<html" in html
        assert "fleet flushes" in html

    def test_dashboard_renders_timeouts(self):
        # An impossible deadline forces every node onto the timeout path.
        records = fleet_records(round_timeout_s=1e-9)
        events = read_events(records)
        assert any(e["kind"] == "fleet_timeout" for e in events)
        html = render_dashboard(RunRecord.from_records(records))
        assert "fleet timeouts" in html
