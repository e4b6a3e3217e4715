"""Unit tests for the event-driven fleet simulator.

The subtle invariants (insertion-order independence, staleness-0
reduction, chaos determinism) live in ``test_fleet_properties.py`` and
``tests/faults/test_fleet_chaos.py``; this file pins the mechanics:
lazy registry residency, buffered-aggregation arithmetic, comm-cost
accounting, and the O(sampled) id-space sampling fix.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import install_ledger, uninstall_ledger
from repro.autodiff import Tensor
from repro.core import FedAvgConfig, FedMLConfig, FedProxConfig
from repro.engine.strategies import MetaStrategy, ProxStrategy, SgdStrategy
from repro.faults import RunInterrupted
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
    ShardFactory,
    SyntheticShardFactory,
)
from repro.federated.sampling import (
    SAMPLER_NODE_ID,
    IdSpaceSampler,
    sample_id_space,
)
from repro.nn import LogisticRegression
from repro.nn.parameters import detach
from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry
from repro.utils.checkpoint import load_checkpoint, save_checkpoint
from repro.utils.rng import instrument_node_rng, spawn
from repro.utils.serialization import payload_bytes

from .test_aggregation import reference_weighted_mean


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

    @pytest.mark.parametrize("seed", [0, 3])
    def test_size_draw_is_the_shard_length(self, seed):
        """The weight a delivered update carries is ``len(make(i))``; the
        registry's ``weight(i)`` for unmaterialized nodes must agree."""
        factory = SyntheticShardFactory(seed=seed)
        for node_id in [0, 1, 17, 999_999]:
            assert factory.num_samples(node_id) == len(factory.make(node_id))

    @pytest.mark.parametrize(
        "field, fields",
        [
            ("min_samples", dict(min_samples=1, max_samples=1)),
            ("min_samples", dict(min_samples=0, max_samples=0)),
            ("max_samples", dict(min_samples=30, max_samples=12)),
            ("input_dim", dict(input_dim=0)),
            ("num_classes", dict(num_classes=0)),
            ("k", dict(k=0)),
            ("alpha", dict(alpha=-0.5)),
            ("beta", dict(beta=-0.5)),
            ("beta", dict(beta=float("nan"))),
        ],
    )
    def test_bad_fields_rejected_at_construction(self, field, fields):
        """A bad field fails when the factory is built, not mid-run."""
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            SyntheticShardFactory(**fields)

    def test_smallest_valid_shard_splits(self):
        factory = SyntheticShardFactory(min_samples=2, max_samples=2)
        node = FleetRegistry(10, factory).materialize(3)
        assert (len(node.split.train), len(node.split.test)) == (1, 1)


def six_call_shard(factory, node_id):
    """The shard as ``make`` drew it with six ``normal`` calls: the
    reference its one ``standard_normal`` draw must equal bit for bit."""
    count = int(
        spawn(factory.seed, "fleet-size", node_id).integers(
            factory.min_samples, factory.max_samples + 1
        )
    )
    dim, classes = factory.input_dim, factory.num_classes
    rng = spawn(factory.seed, "fleet-shard", node_id)
    u = rng.normal(0.0, np.sqrt(factory.alpha)) if factory.alpha > 0 else 0.0
    w = rng.normal(u, 1.0, size=(classes, dim))
    b = rng.normal(u, 1.0, size=classes)
    big_b = rng.normal(0.0, np.sqrt(factory.beta)) if factory.beta > 0 else 0.0
    v = rng.normal(big_b, 1.0, size=dim)
    std = np.sqrt(np.arange(1, dim + 1, dtype=np.float64) ** (-1.2))
    x = rng.normal(v, std, size=(count, dim))
    return x, np.argmax(x @ w.T + b, axis=1).astype(np.int64)


class TestDrawReference:
    """Shards and device speeds cost fewer calls, and draw the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(
        input_dim=st.integers(1, 24),
        num_classes=st.integers(1, 6),
        min_samples=st.integers(2, 12),
        extra_samples=st.integers(0, 16),
        alpha=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        beta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
        seed=st.integers(0, 2**40),
        node_id=st.integers(0, 2**40),
    )
    @example(
        input_dim=1, num_classes=1, min_samples=2, extra_samples=0,
        alpha=0.0, beta=0.0, seed=0, node_id=0,
    )
    @example(
        input_dim=16, num_classes=4, min_samples=12, extra_samples=16,
        alpha=0.5, beta=0.5, seed=0, node_id=999_999,
    )
    def test_one_draw_make_equals_six_calls(
        self, input_dim, num_classes, min_samples, extra_samples, alpha,
        beta, seed, node_id,
    ):
        factory = SyntheticShardFactory(
            input_dim=input_dim, num_classes=num_classes,
            min_samples=min_samples, max_samples=min_samples + extra_samples,
            alpha=alpha, beta=beta, seed=seed,
        )
        shard = factory.make(node_id)
        x, y = six_call_shard(factory, node_id)
        assert shard.x.shape == x.shape
        assert shard.x.tobytes() == x.tobytes()
        assert np.array_equal(shard.y, y)

    @pytest.mark.parametrize("heterogeneity", [0.0, 0.5, 1.7])
    @pytest.mark.parametrize("seed", [0, 2**40 + 3])
    def test_wave_speeds_are_the_per_node_streams(self, seed, heterogeneity):
        config = FleetConfig(
            fleet_size=1000, sampled_per_round=16, rounds=1, seed=seed,
            heterogeneity=heterogeneity,
        )
        sim = FleetSimulator(make_strategy(seed=seed), config)
        ids = sim.sampler.select_ids(config.fleet_size, 0) + [0, 999, 0]
        want = [
            float(
                config.median_seconds_per_step
                * np.exp(
                    spawn(seed, "fleet-speed", node_id).normal(
                        0.0, heterogeneity
                    )
                )
            )
            for node_id in ids
        ]
        assert list(sim._seconds_per_step(ids)) == want


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
        """Eviction drops what the strategy holds for the node: here the
        meta block's prepared kernel, kept for the rest of the fit."""
        shards = SyntheticShardFactory(seed=0)
        strategy = MetaStrategy(
            LogisticRegression(shards.input_dim, shards.num_classes),
            FedMLConfig(
                alpha=0.05, beta=0.05, t0=1, total_iterations=1, k=shards.k,
            ),
        )
        registry = FleetRegistry(100, shards)
        theta = strategy.initial_params(np.random.default_rng(0), None)
        node = registry.materialize(4, detach(theta))
        strategy.begin_fit(theta, [])
        strategy.local_block_vectorized([node], 1, [np.random.default_rng(1)])
        assert len(strategy._kernels) == 1
        registry.evict(4, strategy)
        assert len(strategy._kernels) == 0


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
        with pytest.raises(ValueError, match="staleness_alpha"):
            BufferedAggregator(4, staleness_alpha=float("nan"))

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
        expected = reference_weighted_mean(
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


class TestFleetConfig:
    @pytest.mark.parametrize(
        "field, fields",
        [
            ("staleness_alpha", dict(buffer_size=4, staleness_alpha=-0.5)),
            ("staleness_alpha",
             dict(buffer_size=4, staleness_alpha=float("nan"))),
            ("heterogeneity", dict(heterogeneity=-1.0)),
            ("median_seconds_per_step", dict(median_seconds_per_step=-0.05)),
            ("round_timeout_s", dict(round_timeout_s=0.0)),
            ("round_timeout_s", dict(round_timeout_s=-1.0)),
            ("eval_sample", dict(eval_sample=0)),
            ("eval_every", dict(eval_every=0)),
        ],
    )
    def test_bad_fields_rejected_at_construction(self, field, fields):
        """A bad knob fails when the config is built, not mid-run."""
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            FleetConfig(
                fleet_size=100, sampled_per_round=8, rounds=2, **fields
            )


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
        expected = reference_weighted_mean(trees, normalized)
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

    def test_checkpoint_holds_no_events_and_older_ones_resume(self, tmp_path):
        """A round drains its own event heap, so a checkpoint holds θ, the
        buffer and its versions, and no event; one carrying the empty
        ``pending_events`` list older checkpoints wrote resumes bit-equal
        to an uninterrupted run."""
        ckpt = str(tmp_path / "fleet.ckpt")

        def simulator(faults=None):
            config = FleetConfig(
                fleet_size=1000, sampled_per_round=16, rounds=4,
                local_steps=2, buffer_size=5,
            )
            return FleetSimulator(
                make_strategy(rounds=4), config,
                shards=SyntheticShardFactory(seed=0), faults=faults,
                checkpoint_path=ckpt,
            )

        baseline = simulator().run()
        plan = FaultPlan.from_spec("kill:block=1", seed=0)
        with pytest.raises(RunInterrupted):
            simulator(plan).run()
        saved = load_checkpoint(ckpt)
        assert "pending_events" not in saved.state
        assert saved.state["buffer"]  # a partial buffer crosses the kill
        save_checkpoint(
            ckpt, saved.params, {**saved.state, "pending_events": []}
        )
        resumed = simulator(plan).run(resume=True)
        assert trees_equal(baseline.params, resumed.params)
        assert baseline.history.records == resumed.history.records

    def test_sim_clock_advances_monotonically(self):
        result, _ = run_fleet(rounds=4)
        assert result.sim_clock_s > 0

    def test_eval_subset_is_built_once_per_run(self):
        """Every round evaluates the same subset: its shards are built on
        the first evaluation only, and parked in between, and each logged
        value equals an evaluation on freshly built nodes, bit for bit."""
        shards = CountingShards(seed=0)
        strategy = RecordingSgd(
            LogisticRegression(shards.inner.input_dim, shards.inner.num_classes),
            FedAvgConfig(learning_rate=0.05, t0=1, total_iterations=4, seed=0),
        )
        config = FleetConfig(
            fleet_size=100_000, sampled_per_round=8, rounds=4, local_steps=1,
            seed=0, eval_every=1, eval_sample=8,
        )
        sim = FleetSimulator(strategy, config, shards=shards)
        result = sim.run()
        eval_ids = list(sim._eval_ids)
        trained = {
            node_id
            for r in range(config.rounds)
            for node_id in sim.sampler.select_ids(config.fleet_size, r)
        }
        assert not trained & set(eval_ids)  # no wave took a parked node
        assert [shards.builds[i] for i in eval_ids] == [1] * len(eval_ids)
        assert sorted(sim.registry.parked) == sorted(eval_ids)
        assert sim.registry.resident_count == 0
        assert result.resident_peak == 8

        fresh = FleetRegistry(config.fleet_size, SyntheticShardFactory(seed=0))
        nodes = [fresh.materialize(node_id) for node_id in eval_ids]
        logged = result.history.series("global_loss")
        assert len(logged) == len(strategy.evaluated) == config.rounds
        for value, params in zip(logged, strategy.evaluated):
            assert value == SgdStrategy.evaluate(strategy, params, nodes)[
                "global_loss"
            ]


class CountingShards(ShardFactory):
    """Synthetic shards that count how often each id is built."""

    def __init__(self, seed):
        self.inner = SyntheticShardFactory(seed=seed)
        self.k = self.inner.k
        self.builds = Counter()

    def num_samples(self, node_id):
        return self.inner.num_samples(node_id)

    def make(self, node_id):
        self.builds[node_id] += 1
        return self.inner.make(node_id)


class RecordingSgd(SgdStrategy):
    """FedAvg that keeps the θ of every evaluation."""

    def evaluate(self, params, nodes):
        self.__dict__.setdefault("evaluated", []).append(params)
        return super().evaluate(params, nodes)


class OneByOneSgd(SgdStrategy):
    """FedAvg off the node axis: every node runs ``local_step`` alone."""

    supports_vectorized = False


class OneByOneMeta(MetaStrategy):
    """FedML off the node axis."""

    supports_vectorized = False


#: every fault kind the wave must skip or deliver around; the 5 s delays
#: blow the 2 s round timeout (each kind fires, measured with telemetry)
WAVE_FAULTS = (
    "crash:rate=0.2;drop:rate=0.2;corrupt:rate=0.2,mode=nan;"
    "delay:rate=0.3,delay_s=5.0"
)


class TestStackedWave:
    """A round's wave trains as stacked groups, and each node's update is
    the one it gets training alone: a run equals the same run forced one
    node at a time, bit for bit."""

    def _run(self, kind, stacked, group_sizes):
        shards = SyntheticShardFactory(seed=1)
        model = LogisticRegression(shards.input_dim, shards.num_classes)
        if kind == "fedavg":
            strategy = (SgdStrategy if stacked else OneByOneSgd)(
                model,
                FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=8),
            )
        else:
            strategy = (MetaStrategy if stacked else OneByOneMeta)(
                model,
                FedMLConfig(
                    alpha=0.05, beta=0.05, t0=2, total_iterations=8,
                    k=shards.k,
                ),
            )
        block = strategy.local_block_vectorized

        def spy(nodes, steps, rngs):
            group_sizes.append(len(nodes))
            block(nodes, steps, rngs)

        strategy.local_block_vectorized = spy
        config = FleetConfig(
            fleet_size=500, sampled_per_round=24, rounds=4, local_steps=2,
            buffer_size=5, seed=1, round_timeout_s=2.0,
        )
        return FleetSimulator(
            strategy, config, shards=shards,
            faults=FaultPlan.from_spec(WAVE_FAULTS, seed=3),
        ).run()

    @pytest.mark.parametrize("kind", ["fedavg", "fedml"])
    def test_stacked_run_equals_one_node_at_a_time(self, kind):
        group_sizes, unstacked = [], []
        stacked = self._run(kind, True, group_sizes)
        alone = self._run(kind, False, unstacked)
        assert max(group_sizes) > 1 and unstacked == []
        assert trees_equal(stacked.params, alone.params)
        assert stacked.history.records == alone.history.records
        assert stacked.server_version == alone.server_version > 0
        assert stacked.updates_aggregated == alone.updates_aggregated
        assert stacked.comm_log.uplink_bytes == alone.comm_log.uplink_bytes
        assert stacked.sim_clock_s == alone.sim_clock_s


class TestSharedWaveTheta:
    """A wave's nodes share one read-only θ, detached once per round: each
    node has its own dict over the round's tensors, and a write through
    any of them raises instead of reaching the global model."""

    @pytest.mark.parametrize("kind", ["fedavg", "fedprox", "fedml"])
    def test_every_node_reads_the_rounds_theta_read_only(self, kind):
        shards = SyntheticShardFactory(seed=2)
        model = LogisticRegression(shards.input_dim, shards.num_classes)
        schedule = dict(t0=1, total_iterations=3, seed=2)
        if kind == "fedavg":
            strategy = SgdStrategy(
                model, FedAvgConfig(learning_rate=0.05, **schedule)
            )
        elif kind == "fedprox":
            strategy = ProxStrategy(
                model,
                FedProxConfig(learning_rate=0.05, mu_prox=0.5, **schedule),
            )
        else:
            strategy = MetaStrategy(
                model,
                FedMLConfig(alpha=0.05, beta=0.05, k=shards.k, **schedule),
            )
        config = FleetConfig(
            fleet_size=500, sampled_per_round=12, rounds=3, local_steps=1,
            buffer_size=5, seed=2,
        )
        sim = FleetSimulator(strategy, config, shards=shards)
        seen = []  # per node: (its θ dict, read-only, shared, write raised)
        block = strategy.local_block_vectorized

        def spy(nodes, steps, rngs):
            # Recorded, not asserted: the executor charges a failing
            # block to its nodes.
            for node in nodes:
                raised = []
                for name, tensor in node.params.items():
                    try:
                        tensor.data[...] = 0.0
                    except ValueError:
                        raised.append(name)
                seen.append(
                    (
                        node.params,
                        not any(
                            t.data.flags.writeable
                            for t in node.params.values()
                        ),
                        all(
                            np.shares_memory(t.data, sim.params[name].data)
                            for name, t in node.params.items()
                        ),
                        sorted(raised) == sorted(node.params),
                    )
                )
            block(nodes, steps, rngs)

        strategy.local_block_vectorized = spy
        result = sim.run()
        assert result.server_version > 0
        assert len(seen) == 3 * 12
        assert all(read_only and shared and raised
                   for _, read_only, shared, raised in seen)
        for round_index in range(3):
            trees = [tree for tree, *_ in seen[12 * round_index:][:12]]
            assert len({id(tree) for tree in trees}) == len(trees)
            for name in trees[0]:
                assert len({id(tree[name]) for tree in trees}) == 1


class PoisonedSgd(SgdStrategy):
    """FedAvg whose block leaves one value of a chosen parameter of the
    chosen nodes' updates non-finite, as a diverging local step would."""

    poisoned = {}  # node id -> parameter name

    def local_block_vectorized(self, nodes, steps, rngs):
        super().local_block_vectorized(nodes, steps, rngs)
        for node in nodes:
            name = self.poisoned.get(node.node_id)
            if name is not None:
                data = node.params[name].data.copy()
                data.flat[-1] = np.inf
                node.params = {**node.params, name: Tensor(data)}


class TestWaveFiniteness:
    """One ``np.isfinite`` pass over a wave's updates finds a trained
    update that went non-finite, with no fault injected: it is
    quarantined, and the rest of the wave is aggregated."""

    def test_non_finite_trained_update_is_quarantined(self):
        seed, fleet, sampled, rounds = 4, 300, 8, 2
        shards = SyntheticShardFactory(seed=seed)
        strategy = PoisonedSgd(
            LogisticRegression(shards.input_dim, shards.num_classes),
            FedAvgConfig(
                learning_rate=0.05, t0=1, total_iterations=rounds,
                seed=seed,
            ),
        )
        sampler = IdSpaceSampler(sampled, seed)
        waves = [sampler.select_ids(fleet, r) for r in range(rounds)]
        strategy.poisoned = {waves[0][1]: "W", waves[1][5]: "b"}
        sink = MemorySink()
        config = FleetConfig(
            fleet_size=fleet, sampled_per_round=sampled, rounds=rounds,
            local_steps=1, seed=seed,
        )
        result = FleetSimulator(
            strategy, config, shards=shards, telemetry=Telemetry(sink=sink)
        ).run()
        quarantined = [
            (r["block"], r["node"])
            for r in sink.records
            if r.get("type") == "event" and r.get("kind") == "quarantine"
        ]
        assert quarantined == [(0, waves[0][1]), (1, waves[1][5])]
        assert result.updates_aggregated == rounds * sampled - 2
        assert all(np.isfinite(t.data).all() for t in result.params.values())


class TestFedProxFleet:
    """The fleet runs the strategy's fit hooks: ``begin_fit`` installs the
    FedProx anchor and ``on_aggregate`` moves it after every flush."""

    SEED, FLEET, SAMPLED, STEPS = 0, 500, 8, 3

    def _strategy(self, shards, rounds):
        return ProxStrategy(
            LogisticRegression(shards.input_dim, shards.num_classes),
            FedProxConfig(
                learning_rate=0.05, mu_prox=0.5, t0=self.STEPS,
                total_iterations=rounds * self.STEPS, seed=self.SEED,
            ),
        )

    def test_sync_rounds_match_handrolled_fedprox(self):
        rounds = 2
        shards = SyntheticShardFactory(seed=self.SEED)
        config = FleetConfig(
            fleet_size=self.FLEET, sampled_per_round=self.SAMPLED,
            rounds=rounds, local_steps=self.STEPS, seed=self.SEED,
        )
        result = FleetSimulator(
            self._strategy(shards, rounds), config, shards=shards
        ).run()

        strategy = self._strategy(shards, rounds)
        theta = strategy.initial_params(np.random.default_rng(self.SEED), None)
        sampler = IdSpaceSampler(self.SAMPLED, self.SEED)
        registry = FleetRegistry(self.FLEET, shards)
        for round_index in range(rounds):
            strategy.begin_fit(theta, [])  # the anchor: θ of this round
            trees, weights = [], []
            for node_id in sampler.select_ids(self.FLEET, round_index):
                node = registry.materialize(node_id, theta)
                strategy.bind_node_rng(
                    instrument_node_rng(
                        np.random.default_rng(
                            [self.SEED, round_index, node_id]
                        ),
                        round_index,
                        node_id,
                    )
                )
                for _ in range(self.STEPS):
                    strategy.local_step(node)
                trees.append(node.params)
                weights.append(registry.weight(node_id))
                registry.evict(node_id, strategy)
            normalized = (np.array(weights) / np.sum(weights)).tolist()
            theta = reference_weighted_mean(trees, normalized)
        assert trees_equal(result.params, theta)

    def _buffered(self, spec, checkpoint=None):
        shards = SyntheticShardFactory(seed=self.SEED)
        config = FleetConfig(
            fleet_size=self.FLEET, sampled_per_round=self.SAMPLED, rounds=4,
            local_steps=self.STEPS, buffer_size=3, seed=self.SEED,
            round_timeout_s=2.0,
        )
        return FleetSimulator(
            self._strategy(shards, 4), config, shards=shards,
            faults=FaultPlan.from_spec(spec, seed=3),
            checkpoint_path=checkpoint,
        )

    def test_buffered_faulted_run_resumes_bit_equal(self, tmp_path):
        """A resumed run re-installs the anchor from the restored θ."""
        baseline = self._buffered(WAVE_FAULTS).run()
        assert baseline.server_version > 0
        assert all(np.isfinite(t.data).all() for t in baseline.params.values())
        ckpt = str(tmp_path / "fedprox.ckpt")
        killing = WAVE_FAULTS + ";kill:block=1"
        with pytest.raises(RunInterrupted):
            self._buffered(killing, ckpt).run()
        resumed = self._buffered(killing, ckpt).run(resume=True)
        assert trees_equal(baseline.params, resumed.params)
        assert baseline.history.records == resumed.history.records


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
