"""Memory-bound regression: residency is O(sampled), never O(fleet).

ISSUE 9 satellite: 100k registered / 64 sampled for 20 rounds, and the
materialized-node high-water mark (the ``fl_fleet_resident_nodes`` gauge
and its ``_peak`` twin) must never exceed ``sampled + buffer``.  If a
change makes the registry retain nodes — a dropped evict, a strategy
cache that survives eviction, an eval set that leaks — this is the test
that catches it, long before anyone profiles RSS at a million nodes.
"""

from repro.core.fedavg import FedAvgConfig
from repro.core.fedml import FedMLConfig
from repro.engine.strategies import MetaStrategy, SgdStrategy
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry

FLEET = 100_000
SAMPLED = 64
ROUNDS = 20
BUFFER = 8


def test_100k_fleet_residency_bounded_by_sampled_plus_buffer():
    shards = SyntheticShardFactory(seed=0)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=1, total_iterations=ROUNDS,
            eval_every=5, seed=0,
        ),
    )
    config = FleetConfig(
        fleet_size=FLEET,
        sampled_per_round=SAMPLED,
        rounds=ROUNDS,
        local_steps=1,
        buffer_size=BUFFER,
        seed=0,
        eval_every=5,
        eval_sample=16,
    )
    telemetry = Telemetry(sink=MemorySink())
    sim = FleetSimulator(strategy, config, shards=shards,
                         telemetry=telemetry)
    result = sim.run()

    bound = SAMPLED + BUFFER
    # The result object, the registry, and the exported gauge must agree —
    # the gauge is what OBSERVABILITY.md's catalog promises operators.
    assert result.resident_peak <= bound
    assert sim.registry.resident_peak <= bound
    peak_gauge = telemetry.registry.gauge("fl_fleet_resident_nodes_peak")
    assert 0 < peak_gauge.value <= bound
    assert telemetry.registry.gauge("fl_fleet_registered").value == FLEET

    # After the run every transient node is gone: residency returns to 0.
    assert sim.registry.resident_count == 0
    assert telemetry.registry.gauge("fl_fleet_resident_nodes").value == 0

    # Sanity: the run actually exercised the fleet (sampled fresh ids).
    assert sim.registry.materializations >= SAMPLED
    assert result.rounds_completed == ROUNDS


class _CountingMeta(MetaStrategy):
    """FedML noting how many prepared kernels it held at each eviction."""

    held_at_release = 0

    def release_node(self, node):
        self.held_at_release = max(self.held_at_release, len(self._kernels))
        super().release_node(node)


def test_fedml_fleet_releases_every_prepared_kernel():
    """The meta block keeps each stacked group's kernel for later blocks;
    eviction (``release_node``) drops it, so a FedML fleet run ends holding
    none, however many waves prepared one."""
    shards = SyntheticShardFactory(seed=0)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = _CountingMeta(
        model,
        FedMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=10, k=shards.k,
            eval_every=5, seed=0,
        ),
    )
    config = FleetConfig(
        fleet_size=10_000,
        sampled_per_round=32,
        rounds=5,
        local_steps=2,
        buffer_size=BUFFER,
        seed=0,
        eval_every=5,
        eval_sample=16,
    )
    sim = FleetSimulator(strategy, config, shards=shards)
    sim.run()
    assert strategy.held_at_release > 0
    assert len(strategy._kernels) == 0
    assert sim.registry.resident_count == 0
