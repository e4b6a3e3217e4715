"""One FaultPlan, two interpreters' worth of callers, the same faults.

The round engine (through :class:`~repro.faults.FaultInjector`) and the
event-driven fleet simulator both ask the plan's per-cell decisions, so a
plan run over nodes ``0..N-1`` for ``B`` blocks must fault exactly the same
``(kind, block, node)`` cells on either path — here checked through each
path's ``fault_injected`` telemetry, the record a user would compare.
"""

from repro.core import FedAvg, FedAvgConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import EngineOptions
from repro.engine.strategies import SgdStrategy
from repro.faults import FaultPlan, ResiliencePolicy
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.obs import MemorySink, Telemetry

NODES = 8
BLOCKS = 6
T0 = 2
SPEC = "crash:rate=0.15,duration=2;drop:rate=0.25"


def fault_cells(telemetry):
    return {
        (record["fault"], record["block"], record["node"])
        for record in telemetry.sink.records
        if record.get("kind") == "fault_injected"
    }


def engine_faults(plan):
    telemetry = Telemetry(sink=MemorySink())
    fed = generate_synthetic(
        SyntheticConfig(num_nodes=NODES, mean_samples=20, seed=1)
    )
    FedAvg(
        LogisticRegression(60, 10),
        FedAvgConfig(
            learning_rate=0.05, t0=T0, total_iterations=BLOCKS * T0, seed=0
        ),
        telemetry=telemetry,
        engine_options=EngineOptions(
            faults=plan, resilience=ResiliencePolicy()
        ),
    ).fit(fed, list(range(NODES)))
    return fault_cells(telemetry)


def fleet_faults(plan):
    telemetry = Telemetry(sink=MemorySink())
    shards = SyntheticShardFactory(seed=0)
    strategy = SgdStrategy(
        LogisticRegression(shards.input_dim, shards.num_classes),
        FedAvgConfig(
            learning_rate=0.05, t0=T0, total_iterations=BLOCKS * T0, seed=0
        ),
    )
    config = FleetConfig(
        fleet_size=NODES,
        sampled_per_round=NODES,  # full participation, like the engine
        rounds=BLOCKS,
        local_steps=T0,
        seed=0,
    )
    FleetSimulator(
        strategy, config, shards=shards, telemetry=telemetry, faults=plan
    ).run()
    return fault_cells(telemetry)


def test_engine_and_fleet_inject_the_same_faults():
    plan = FaultPlan.from_spec(SPEC, seed=7)
    engine = engine_faults(plan)
    assert {kind for kind, _, _ in engine} == {"crash", "drop"}
    assert engine == fleet_faults(plan)
