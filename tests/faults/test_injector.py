"""Unit tests for the fault injector and the resilience policy."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.data.dataset import Dataset, NodeSplit
from repro.faults import (
    CorruptSchedule,
    ExplicitSchedule,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultToleranceError,
    FlakyWorkerSchedule,
    KillSchedule,
    ResiliencePolicy,
)
from repro.federated.network import LinkModel
from repro.federated.node import EdgeNode
from repro.obs import MemorySink, Telemetry

#: an effectively free link so block time reduces to compute + delay
FAST_LINK = LinkModel(uplink_bytes_per_s=1e12, downlink_bytes_per_s=1e12, latency_s=0.0)


def make_node(node_id, value=1.0):
    data = Dataset(x=np.zeros((2, 3)), y=np.zeros(2, dtype=np.int64))
    node = EdgeNode(
        node_id=node_id,
        split=NodeSplit(train=data, test=data),
        weight=0.25,
    )
    node.params = {"w": Tensor(np.full(4, value, dtype=np.float64))}
    return node


def make_injector(events, policy=None, telemetry=None, num_nodes=4):
    plan = FaultPlan([ExplicitSchedule(tuple(events))])
    injector = FaultInjector(plan, policy=policy, telemetry=telemetry)
    injector.begin(list(range(num_nodes)))
    return injector


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(round_timeout_s=0.0),
            dict(round_timeout_s=-1.0),
            dict(max_retries=-1),
            dict(backoff_base_s=-0.1),
            dict(min_participants=0),
            dict(seconds_per_step=0.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)

    def test_backoff_is_exponential(self):
        policy = ResiliencePolicy(backoff_base_s=0.5)
        assert policy.backoff_s(0) == pytest.approx(0.5)
        assert policy.backoff_s(1) == pytest.approx(1.0)
        assert policy.backoff_s(2) == pytest.approx(2.0)


class TestCrashAndKill:
    def test_crashed_reports_window_and_counts(self):
        tel = Telemetry(sink=MemorySink())
        injector = make_injector(
            [FaultEvent("crash", 1, 2, duration=2)], telemetry=tel
        )
        assert injector.crashed(0) == set()
        assert injector.crashed(1) == {2}
        assert injector.crashed(2) == {2}
        assert injector.crashed(3) == set()
        counter = tel.registry.get("fl_faults_total", kind="crash")
        assert counter.value == 2

    def test_kill_scheduled(self):
        injector = FaultInjector(FaultPlan([KillSchedule(block=3)]))
        injector.begin([0, 1])
        assert not injector.plan.killed_after(2)
        assert injector.plan.killed_after(3)
        assert injector.crashed(3) == set()


class TestFlaky:
    def test_recovered_flaky_charges_retries_and_backoff(self):
        tel = Telemetry(sink=MemorySink())
        injector = make_injector(
            [FaultEvent("flaky", 0, 1, fail_times=2)],
            policy=ResiliencePolicy(max_retries=2, backoff_base_s=0.5),
            telemetry=tel,
        )
        failed, backoff = injector.simulate_flaky(0, [0, 1, 2, 3])
        assert failed == set()
        assert backoff == {1: pytest.approx(0.5 + 1.0)}
        assert tel.registry.get("fl_retries_total").value == 2
        assert tel.registry.get("fl_faults_total", kind="flaky").value == 1

    def test_flaky_beyond_budget_fails_the_block(self):
        injector = make_injector(
            [FaultEvent("flaky", 0, 1, fail_times=5)],
            policy=ResiliencePolicy(max_retries=2),
        )
        failed, backoff = injector.simulate_flaky(0, [0, 1])
        assert failed == {1}
        assert 1 in backoff  # the budget was still spent before giving up

    def test_zero_retry_budget_fails_immediately(self):
        injector = make_injector(
            [FaultEvent("flaky", 0, 1, fail_times=1)],
            policy=ResiliencePolicy(max_retries=0),
        )
        failed, backoff = injector.simulate_flaky(0, [0, 1])
        assert failed == {1}
        assert backoff == {}


class TestFilterUpdates:
    def test_drop_excludes_node(self):
        tel = Telemetry(sink=MemorySink())
        injector = make_injector([FaultEvent("drop", 0, 1)], telemetry=tel)
        nodes = [make_node(i) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        assert [n.node_id for n in kept] == [0, 2, 3]
        assert tel.registry.get("fl_faults_total", kind="drop").value == 1

    def test_corrupt_nan_is_quarantined(self):
        tel = Telemetry(sink=MemorySink())
        injector = make_injector(
            [FaultEvent("corrupt", 0, 1, mode="nan")], telemetry=tel
        )
        nodes = [make_node(i) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        assert [n.node_id for n in kept] == [0, 2, 3]
        assert np.isnan(nodes[1].params["w"].data).all()
        assert tel.registry.get("fl_quarantined_total").value == 1
        assert tel.registry.get("fl_faults_total", kind="corrupt").value == 1

    def test_corrupt_schedule_takes_precedence_over_explicit(self):
        plan = FaultPlan(
            [
                CorruptSchedule(rate=1.0, mode="scale", scale=2.0),
                ExplicitSchedule((FaultEvent("corrupt", 0, 1, mode="nan"),)),
            ]
        )
        injector = FaultInjector(plan)
        injector.begin([0, 1])
        nodes = [make_node(i) for i in range(2)]
        kept = injector.filter_updates(0, nodes, set(), steps=1)
        # the schedule's scaling wins over the later explicit NaN event
        assert [n.node_id for n in kept] == [0, 1]
        np.testing.assert_allclose(nodes[1].params["w"].data, 2.0)

    def test_partial_nan_fraction_poisons_some_entries(self):
        injector = make_injector(
            [FaultEvent("corrupt", 0, 1, mode="nan", fraction=0.5)]
        )
        node = make_node(1)
        node.params = {"w": Tensor(np.ones(1000, dtype=np.float64))}
        injector.filter_updates(0, [make_node(0), node], set(), steps=1)
        nan_count = int(np.isnan(node.params["w"].data).sum())
        assert 0 < nan_count < 1000

    def test_corrupt_scale_passes_quarantine_but_scales(self):
        injector = make_injector(
            [FaultEvent("corrupt", 0, 1, mode="scale", scale=10.0)]
        )
        nodes = [make_node(i, value=2.0) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        # finite, so it stays in the aggregate — silently poisoned
        assert [n.node_id for n in kept] == [0, 1, 2, 3]
        np.testing.assert_allclose(nodes[1].params["w"].data, 20.0)

    def test_corruption_is_deterministic(self):
        def run():
            injector = make_injector(
                [FaultEvent("corrupt", 0, 1, mode="nan", fraction=0.3)]
            )
            node = make_node(1)
            node.params = {"w": Tensor(np.ones(64, dtype=np.float64))}
            injector.filter_updates(0, [make_node(0), node], set(), steps=1)
            return np.isnan(node.params["w"].data)

        np.testing.assert_array_equal(run(), run())

    def test_delay_without_timeout_only_moves_the_clock(self):
        tel = Telemetry(sink=MemorySink())
        injector = make_injector(
            [FaultEvent("delay", 0, 1, delay_s=30.0)], telemetry=tel
        )
        nodes = [make_node(i) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        assert len(kept) == 4
        assert tel.registry.get("fl_faults_total", kind="delay").value == 1
        # no timeout configured -> no straggler accounting, no clock
        assert injector.sim_clock_s == 0.0

    def test_timeout_drops_delayed_straggler(self):
        tel = Telemetry(sink=MemorySink())
        policy = ResiliencePolicy(
            round_timeout_s=5.0, seconds_per_step=0.05, link=FAST_LINK
        )
        injector = make_injector(
            [FaultEvent("delay", 0, 1, delay_s=30.0)],
            policy=policy,
            telemetry=tel,
        )
        nodes = [make_node(i) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        assert [n.node_id for n in kept] == [0, 2, 3]
        assert tel.registry.get("fl_stragglers_dropped_total").value == 1
        # the round clock advances by the slowest *kept* node's block time
        assert injector.sim_clock_s == pytest.approx(3 * 0.05)

    def test_timeout_dropping_everyone_keeps_min_participants(self):
        policy = ResiliencePolicy(
            round_timeout_s=0.01,
            min_participants=2,
            seconds_per_step=0.05,
            link=FAST_LINK,
        )
        events = [
            FaultEvent("delay", 0, node_id, delay_s=float(node_id))
            for node_id in range(4)
        ]
        injector = make_injector(events, policy=policy)
        nodes = [make_node(i) for i in range(4)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        # the two fastest nodes survive even though all missed the deadline
        assert [n.node_id for n in kept] == [0, 1]

    def test_floor_reinstates_dropped_update_over_stale(self):
        policy = ResiliencePolicy(min_participants=2)
        injector = make_injector(
            [FaultEvent("drop", 0, 1), FaultEvent("drop", 0, 2)],
            policy=policy,
        )
        nodes = [make_node(i) for i in range(4)]
        # nodes 0 and 3 stale (crashed): only drops 1, 2 computed anything
        kept = injector.filter_updates(0, nodes, {0, 3}, steps=3)
        assert [n.node_id for n in kept] == [1, 2]

    def test_quarantined_update_is_never_reinstated(self):
        policy = ResiliencePolicy(min_participants=2)
        injector = make_injector(
            [FaultEvent("corrupt", 0, 0, mode="nan"), FaultEvent("drop", 0, 1)],
            policy=policy,
        )
        nodes = [make_node(i) for i in range(3)]
        kept = injector.filter_updates(0, nodes, set(), steps=3)
        # node 0 is poisoned: the floor backfills from the dropped node 1
        assert [n.node_id for n in kept] == [2, 1]

    def test_nothing_usable_raises(self):
        injector = make_injector(
            [FaultEvent("corrupt", 0, i, mode="nan") for i in range(2)],
            num_nodes=2,
        )
        nodes = [make_node(i) for i in range(2)]
        with pytest.raises(FaultToleranceError, match="no usable updates"):
            injector.filter_updates(0, nodes, set(), steps=3)

    def test_stale_node_backfills_as_last_resort(self):
        policy = ResiliencePolicy(min_participants=2)
        injector = make_injector(
            [FaultEvent("drop", 0, 1)], policy=policy, num_nodes=3
        )
        nodes = [make_node(i) for i in range(3)]
        # node 2 crashed (stale); drop loses node 1 -> floor prefers the
        # dropped update (computed) before falling back to stale params
        kept = injector.filter_updates(0, nodes, {2}, steps=3)
        assert [n.node_id for n in kept] == [0, 1]
