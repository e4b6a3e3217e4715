"""Unit tests for the event-driven fleet simulator.

The subtle invariants (insertion-order independence, staleness-0
reduction, chaos determinism) live in ``test_fleet_properties.py`` and
``tests/faults/test_fleet_chaos.py``; this file pins the mechanics:
lazy registry residency, buffered-aggregation arithmetic, comm-cost
accounting, and the O(sampled) id-space sampling fix.
"""

import numpy as np
import pytest

from repro.analysis.determinism import install_ledger, uninstall_ledger
from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.faults.plan import (
    ExplicitSchedule,
    FaultEvent,
    FaultPlan,
    FlakyWorkerSchedule,
)
from repro.federated.fleet import (
    BufferedAggregator,
    BufferEntry,
    FleetConfig,
    FleetRegistry,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.federated.sampling import (
    SAMPLER_NODE_ID,
    IdSpaceSampler,
    sample_id_space,
)
from repro.nn import LogisticRegression
from repro.nn.parameters import weighted_average
from repro.utils.rng import instrument_node_rng
from repro.utils.serialization import payload_bytes


def make_strategy(seed=0, lr=0.05, local_steps=2, rounds=5):
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    return SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=lr,
            t0=local_steps,
            total_iterations=rounds * local_steps,
            eval_every=1,
            seed=seed,
        ),
    )


def run_fleet(seed=0, fleet=1000, sampled=16, rounds=3, local_steps=2,
              faults=None, **kwargs):
    strategy = make_strategy(seed=seed, local_steps=local_steps,
                             rounds=rounds)
    config = FleetConfig(
        fleet_size=fleet,
        sampled_per_round=sampled,
        rounds=rounds,
        local_steps=local_steps,
        seed=seed,
        **kwargs,
    )
    sim = FleetSimulator(
        strategy, config, shards=SyntheticShardFactory(seed=seed),
        faults=faults,
    )
    return sim.run(), sim


def trees_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[name].data, b[name].data) for name in a
    )


class TestSyntheticShardFactory:
    def test_shards_are_pure_functions_of_node_id(self):
        factory = SyntheticShardFactory(seed=3)
        first = factory.make(42)
        again = factory.make(42)
        assert np.array_equal(first.x, again.x)
        assert np.array_equal(first.y, again.y)

    def test_num_samples_matches_built_shard(self):
        factory = SyntheticShardFactory(seed=1)
        for node_id in (0, 17, 99_999):
            assert len(factory.make(node_id)) == factory.num_samples(node_id)

    def test_distinct_nodes_get_distinct_shards(self):
        factory = SyntheticShardFactory(seed=0)
        assert not np.array_equal(factory.make(0).x, factory.make(1).x)


class TestFleetRegistry:
    def test_materialize_evict_tracks_residency(self):
        registry = FleetRegistry(100, SyntheticShardFactory(seed=0))
        assert registry.resident_count == 0
        registry.materialize(3)
        registry.materialize(7)
        assert registry.resident_count == 2
        assert registry.resident_peak == 2
        registry.evict(3)
        assert registry.resident_count == 1
        assert registry.resident_peak == 2  # high-water mark sticks
        registry.evict(7)
        assert registry.resident_count == 0

    def test_weight_never_materializes(self):
        registry = FleetRegistry(1_000_000, SyntheticShardFactory(seed=0))
        weight = registry.weight(999_999)
        assert weight > 0
        assert registry.materializations == 0
        assert registry.resident_count == 0

    def test_rematerialization_is_bit_identical(self):
        registry = FleetRegistry(100, SyntheticShardFactory(seed=5))
        node = registry.materialize(11)
        train_x = node.split.train.x.copy()
        test_x = node.split.test.x.copy()
        registry.evict(11)
        again = registry.materialize(11)
        assert np.array_equal(again.split.train.x, train_x)
        assert np.array_equal(again.split.test.x, test_x)

    def test_out_of_range_node_rejected(self):
        registry = FleetRegistry(10, SyntheticShardFactory(seed=0))
        with pytest.raises(ValueError):
            registry.materialize(10)

    def test_evict_releases_strategy_cache(self):
        strategy = make_strategy()
        registry = FleetRegistry(100, SyntheticShardFactory(seed=0))
        node = registry.materialize(4)
        node.params = strategy.initial_params(np.random.default_rng(0), None)
        strategy.bind_node_rng(np.random.default_rng(1))
        strategy.local_step(node)  # populates the per-node data cache
        assert 4 in strategy.__dict__["_data_cache"]
        registry.evict(4, strategy)
        assert 4 not in strategy.__dict__["_data_cache"]


class TestBufferedAggregator:
    def _entry(self, node_id, value, weight=1.0, base_version=0):
        from repro.autodiff import Tensor

        return BufferEntry(
            node_id=node_id,
            weight=weight,
            base_version=base_version,
            params={"w": Tensor(np.full(3, float(value)))},
        )

    def test_validates_capacity_and_alpha(self):
        with pytest.raises(ValueError):
            BufferedAggregator(0)
        with pytest.raises(ValueError):
            BufferedAggregator(4, staleness_alpha=-1.0)

    def test_flush_empty_buffer_raises(self):
        agg = BufferedAggregator(4)
        from repro.autodiff import Tensor

        with pytest.raises(ValueError):
            agg.flush({"w": Tensor(np.zeros(3))}, 0, {})

    def test_add_reports_full_at_capacity(self):
        agg = BufferedAggregator(2)
        assert not agg.add(self._entry(0, 1.0))
        assert agg.add(self._entry(1, 2.0))

    def test_discount_schedule(self):
        agg = BufferedAggregator(4, staleness_alpha=0.5)
        assert agg.discount(0) == 1.0
        assert agg.discount(3) == pytest.approx(0.5)
        flat = BufferedAggregator(4, staleness_alpha=0.0)
        assert flat.discount(7) == 1.0

    def test_fresh_flush_is_plain_weighted_average(self):
        agg = BufferedAggregator(2)
        entries = [
            self._entry(0, 1.0, weight=3.0),
            self._entry(1, 5.0, weight=1.0),
        ]
        for entry in entries:
            agg.add(entry)
        from repro.autodiff import Tensor

        current = {"w": Tensor(np.zeros(3))}
        merged, stats = agg.flush(current, 0, {})
        expected = weighted_average(
            [entries[0].params, entries[1].params], [0.75, 0.25]
        )
        assert np.array_equal(merged["w"].data, expected["w"].data)
        assert [s["staleness"] for s in stats] == [0, 0]
        assert len(agg) == 0

    def test_stale_entry_is_anchored_and_discounted(self):
        from repro.autodiff import Tensor

        agg = BufferedAggregator(1, staleness_alpha=1.0)
        base = {"w": Tensor(np.full(3, 2.0))}
        current = {"w": Tensor(np.full(3, 10.0))}
        agg.add(self._entry(0, 6.0, base_version=0))
        merged, stats = agg.flush(current, 2, {0: base})
        # d(tau=2) = (1+2)^-1; correction = 10 + (1/3)(6 - 2) = 34/3
        expected = 10.0 + (1.0 / 3.0) * (6.0 - 2.0)
        assert np.allclose(merged["w"].data, expected)
        assert stats[0]["staleness"] == 2
        assert stats[0]["discount"] == pytest.approx(1.0 / 3.0)


def explicit(*events):
    return FaultPlan([ExplicitSchedule(tuple(events))])


class TestFleetFaults:
    """The fleet asks the same FaultPlan decisions as the engine and
    rejects, when built, what it cannot honour."""

    def test_flaky_schedules_rejected_on_fleet_path(self):
        for plan in (
            FaultPlan([FlakyWorkerSchedule(rate=0.5)], seed=0),
            explicit(FaultEvent("flaky", 0, 1, fail_times=2)),
        ):
            with pytest.raises(ValueError, match="flaky"):
                run_fleet(fleet=4, sampled=4, rounds=1, faults=plan)

    def test_explicit_event_outside_fleet_rejected(self):
        for node in (4, -1):
            with pytest.raises(ValueError, match="outside fleet"):
                run_fleet(
                    fleet=4, sampled=4, rounds=1,
                    faults=explicit(FaultEvent("drop", 0, node)),
                )

    def test_explicit_delays_on_one_cell_sum(self):
        def clock(*delays):
            plan = explicit(
                *(FaultEvent("delay", 0, 1, delay_s=d) for d in delays)
            )
            result, _ = run_fleet(fleet=4, sampled=4, rounds=1, faults=plan)
            return result.sim_clock_s

        assert clock(20.0, 20.0) == clock(40.0) > clock(20.0)

    def test_decisions_are_pure_functions_of_plan(self):
        first = FaultPlan.from_spec("crash:rate=0.5;drop:rate=0.5", seed=9)
        second = FaultPlan.from_spec("crash:rate=0.5;drop:rate=0.5", seed=9)
        for node in range(50):
            assert first.crashed(2, node) == second.crashed(2, node)
            assert first.dropped(2, node) == second.dropped(2, node)

    def test_crash_duration_covers_window(self):
        plan = FaultPlan.from_spec("crash:rate=1.0,duration=3", seed=0)
        # rate=1 ⇒ every (round, node) starts a crash, so any round in a
        # window is down; the point here is that the window check runs.
        assert plan.crashed(0, 1)
        assert plan.crashed(2, 1)


class TestFleetSimulator:
    def test_sync_round_matches_handrolled_fedavg(self):
        """One synchronous round == materialize-all FedAvg, bit for bit."""
        seed, fleet, sampled, local_steps = 0, 500, 8, 3
        result, _ = run_fleet(
            seed=seed, fleet=fleet, sampled=sampled, rounds=1,
            local_steps=local_steps,
        )

        shards = SyntheticShardFactory(seed=seed)
        strategy = make_strategy(seed=seed, local_steps=local_steps, rounds=1)
        theta0 = strategy.initial_params(np.random.default_rng(seed), None)
        ids = IdSpaceSampler(sampled, seed).select_ids(fleet, 0)
        registry = FleetRegistry(fleet, shards)
        trees, weights = [], []
        for node_id in ids:  # ascending id order == canonical flush order
            node = registry.materialize(node_id, theta0)
            strategy.bind_node_rng(
                instrument_node_rng(
                    np.random.default_rng([seed, 0, node_id]), 0, node_id
                )
            )
            for _ in range(local_steps):
                strategy.local_step(node)
            trees.append(node.params)
            weights.append(registry.weight(node_id))
        normalized = (np.array(weights) / np.sum(weights)).tolist()
        expected = weighted_average(trees, normalized)
        assert trees_equal(result.params, expected)

    def test_double_run_bit_identical(self):
        first, _ = run_fleet(buffer_size=5)
        second, _ = run_fleet(buffer_size=5)
        assert trees_equal(first.params, second.params)
        assert first.history.records == second.history.records

    def test_update_and_flush_accounting(self):
        result, _ = run_fleet(fleet=300, sampled=10, rounds=4, buffer_size=4)
        # 40 deliveries, flushed 4 at a time ⇒ 10 flushes, 0 left over.
        assert result.updates_aggregated == 40
        assert result.server_version == 10

    def test_comm_bytes_charged_per_dispatch_and_delivery(self):
        result, sim = run_fleet(fleet=300, sampled=10, rounds=2)
        payload = payload_bytes(result.params)
        assert result.comm_log.downlink_bytes == 2 * 10 * payload
        assert result.comm_log.uplink_bytes == 2 * 10 * payload

    def test_round_timeout_drops_all_slow_nodes(self):
        result, _ = run_fleet(
            fleet=300, sampled=10, rounds=2, round_timeout_s=1e-9
        )
        # Nothing can finish inside the deadline: no deliveries, no
        # aggregations, θ stays at θ⁰.
        assert result.server_version == 0
        assert result.updates_aggregated == 0

    def test_registry_is_empty_after_run(self):
        result, sim = run_fleet()
        assert sim.registry.resident_count == 0
        assert result.resident_peak <= sim.config.sampled_per_round + len(
            sim.buffer.entries
        ) + sim.buffer.capacity

    def test_sim_clock_advances_monotonically(self):
        result, _ = run_fleet(rounds=4)
        assert result.sim_clock_s > 0


class TestIdSpaceSampling:
    """The O(fleet)-scan latent bug fix (ISSUE 9 satellite)."""

    def test_ids_distinct_sorted_in_range(self):
        rng = np.random.default_rng(0)
        ids = sample_id_space(10_000, 64, rng)
        assert len(ids) == 64
        assert len(set(ids)) == 64
        assert ids == sorted(ids)
        assert all(0 <= i < 10_000 for i in ids)

    def test_dense_request_falls_back_to_permutation(self):
        rng = np.random.default_rng(0)
        ids = sample_id_space(10, 9, rng)
        assert len(set(ids)) == 9

    def test_count_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_id_space(10, 0, rng)
        with pytest.raises(ValueError):
            sample_id_space(10, 11, rng)

    def test_sampler_is_resume_safe(self):
        sampler = IdSpaceSampler(16, seed=3)
        fresh = IdSpaceSampler(16, seed=3)
        sampler.select_ids(1000, 0)
        sampler.select_ids(1000, 1)
        # Round 2's selection is independent of how many rounds ran first.
        assert sampler.select_ids(1000, 2) == fresh.select_ids(1000, 2)

    def test_draw_counts_independent_of_fleet_size(self):
        """Regression: sampling must be O(sampled), not an O(fleet) scan.

        The RNG ledger counts generator calls on the sampler's
        ``(round, SAMPLER_NODE_ID)`` stream.  Chunked rejection sampling
        makes a constant number of vectorized draws for a fixed sample
        size — the same count at 10k registered nodes as at 1M.  The old
        node-list samplers would need the materialized fleet itself (and
        ``rng.choice`` over it) to grow with registration.
        """

        def draws(fleet_size):
            ledger = install_ledger()
            try:
                IdSpaceSampler(32, seed=0).select_ids(fleet_size, 0)
            finally:
                uninstall_ledger()
            return ledger.stream(0, SAMPLER_NODE_ID).draws

        small, huge = draws(10_000), draws(1_000_000)
        assert small == huge
        assert small <= 2  # one chunked draw, at most one top-up
