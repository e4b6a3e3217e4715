"""Capture the fleet golden: buffered FedAvg, FedProx and FedML under a
fault plan.

Run this against a known-good revision of the fleet simulator to
(re)generate ``fleet_golden.json``::

    PYTHONPATH=src python tests/federated/capture_fleet_golden.py

``test_fleet_golden.py`` then asserts the current code reproduces it bit
for bit: final θ, history, simulated clock, server version, aggregated
updates, both byte counts, and a few shards built by
``SyntheticShardFactory.make``.  The runs exercise every per-node stream
the fleet derives from its seed: the shard and size streams, the device
speed, the sampler, the round's fault decisions (crash, drop, delay and
corruption, with a round timeout so delays bite) and the executor block;
the FedProx run also pins its anchor, installed by ``begin_fit`` and moved
by ``on_aggregate`` after every flush.
5,000 registered nodes, 32 sampled, 4 rounds: the capture and the test
both run in about a second.
"""

import hashlib
import json
import pathlib

from repro.core import FedAvgConfig, FedMLConfig, FedProxConfig
from repro.engine.strategies import MetaStrategy, ProxStrategy, SgdStrategy
from repro.faults import FaultPlan
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "fleet_golden.json"

SEED = 3
FAULTS = (
    "crash:rate=0.2;drop:rate=0.1;delay:rate=0.2,delay_s=0.4;"
    "corrupt:rate=0.1,mode=nan"
)
FAULTS_SEED = 7
SHARD_IDS = (0, 1, 2_500, 4_999)


def build_shards():
    return SyntheticShardFactory(seed=SEED)


def build_simulator(algorithm):
    """The golden fleet run for ``algorithm`` ("fedavg", "fedprox" or
    "fedml")."""
    shards = build_shards()
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    rounds, local_steps = 4, 2
    schedule = dict(
        t0=local_steps, total_iterations=rounds * local_steps,
        eval_every=1, seed=SEED,
    )
    if algorithm == "fedavg":
        strategy = SgdStrategy(
            model, FedAvgConfig(learning_rate=0.05, **schedule)
        )
    elif algorithm == "fedprox":
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
        fleet_size=5_000,
        sampled_per_round=32,
        rounds=rounds,
        local_steps=local_steps,
        buffer_size=8,
        seed=SEED,
        round_timeout_s=0.6,
    )
    return FleetSimulator(
        strategy, config, shards=shards,
        faults=FaultPlan.from_spec(FAULTS, seed=FAULTS_SEED),
    )


def summarize(result):
    """The pinned fields of one fleet run."""
    return {
        "final_params": to_vector(result.params).tolist(),
        "records": result.history.records,
        "sim_clock_s": result.sim_clock_s,
        "server_version": result.server_version,
        "updates_aggregated": result.updates_aggregated,
        "uplink_bytes": result.comm_log.uplink_bytes,
        "downlink_bytes": result.comm_log.downlink_bytes,
    }


def shard_digest(shards, node_id):
    """``make(node_id)`` pinned by its size, shapes and content hashes."""
    data = shards.make(node_id)
    return {
        "num_samples": shards.num_samples(node_id),
        "x_shape": list(data.x.shape),
        "x_sha256": hashlib.sha256(data.x.tobytes()).hexdigest(),
        "y": data.y.tolist(),
    }


def capture():
    golden = {"runs": {}, "shards": {}}
    for algorithm in ("fedavg", "fedprox", "fedml"):
        golden["runs"][algorithm] = summarize(
            build_simulator(algorithm).run()
        )
        print(f"{algorithm}: {golden['runs'][algorithm]['server_version']} "
              "aggregations captured")
    shards = build_shards()
    for node_id in SHARD_IDS:
        golden["shards"][str(node_id)] = shard_digest(shards, node_id)
    OUT.write_text(json.dumps(golden, indent=1))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    capture()
