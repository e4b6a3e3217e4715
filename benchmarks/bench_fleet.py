"""Ablation — the event-driven fleet simulator at one million nodes.

The fleet path's pitch is O(sampled) memory: a million registered nodes
must cost no more residency than the per-round sample plus the
aggregation buffer, because node state is materialized from the seed at
dispatch and evicted once the round's wave has trained.  This bench runs
the headline leg — 1,000,000 registered / 1,000 sampled per round — and
records throughput (updates/sec, rounds/sec), the materialized-node
high-water mark, and whether it stayed inside ``sampled + buffer``.  A second leg re-runs a
small fleet twice and asserts bit-identical θ, so the speed numbers are
never bought with nondeterminism.

Standalone mode writes the CI artifact ``BENCH_fleet.json``::

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_fleet.json

CI uses ``--short`` (100k registered / 256 sampled) to keep the job
inside its minutes budget; the metric names stay the same so the
``repro bench-check`` baseline applies to either leg.
"""

import argparse
import json
import resource
import time

import numpy as np

from repro.core import FedAvgConfig
from repro.engine import SgdStrategy
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

from conftest import run_once


def build_simulator(fleet_size, sampled, rounds, buffer_size, seed=0):
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=1, total_iterations=rounds,
            eval_every=10_000, seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=fleet_size,
        sampled_per_round=sampled,
        rounds=rounds,
        local_steps=1,
        buffer_size=buffer_size,
        seed=seed,
        eval_every=10_000,
    )
    return FleetSimulator(strategy, config, shards=shards)


def max_rss_mb():
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_scale_leg(fleet_size=1_000_000, sampled=1_000, rounds=5,
                  buffer_size=128):
    sim = build_simulator(fleet_size, sampled, rounds, buffer_size)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    bound = sampled + sim.config.effective_buffer
    return {
        "fleet_size": fleet_size,
        "sampled_per_round": sampled,
        "rounds": rounds,
        "buffer_size": buffer_size,
        "elapsed_seconds": elapsed,
        "updates_per_sec": result.updates_aggregated / elapsed,
        "rounds_per_sec": result.rounds_completed / elapsed,
        "updates_aggregated": result.updates_aggregated,
        "resident_peak": result.resident_peak,
        "resident_bound": bound,
        "memory_bounded": bool(result.resident_peak <= bound),
        "max_rss_mb": max_rss_mb(),
        "sim_clock_s": result.sim_clock_s,
    }


def run_determinism_leg(fleet_size=5_000, sampled=16, rounds=4,
                        buffer_size=8):
    first = build_simulator(fleet_size, sampled, rounds, buffer_size).run()
    second = build_simulator(fleet_size, sampled, rounds, buffer_size).run()
    return {
        "deterministic": bool(
            np.array_equal(
                to_vector(first.params), to_vector(second.params)
            )
        ),
    }


def test_fleet_scale(benchmark):
    """Pytest entry: 100k-node short leg stays memory-bounded."""
    result = run_once(
        benchmark,
        lambda: run_scale_leg(fleet_size=100_000, sampled=256, rounds=3,
                              buffer_size=64),
    )
    assert result["memory_bounded"], (
        f"residency {result['resident_peak']} exceeded "
        f"bound {result['resident_bound']}"
    )
    assert result["updates_aggregated"] > 0


def test_fleet_determinism(benchmark):
    """Pytest entry: two identical fleet runs produce bit-identical θ."""
    result = run_once(benchmark, run_determinism_leg)
    assert result["deterministic"], "double fleet run diverged"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--short", action="store_true",
        help="100k/256 CI leg instead of the 1M/1k headline",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", default="BENCH_fleet.json")
    args = parser.parse_args()

    if args.short:
        scale = run_scale_leg(
            fleet_size=100_000, sampled=256, rounds=min(args.rounds, 3),
            buffer_size=64,
        )
    else:
        scale = run_scale_leg(rounds=args.rounds)
    record = dict(scale)
    record.update(run_determinism_leg())

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(
        f"{record['fleet_size']:,} registered / "
        f"{record['sampled_per_round']} sampled x {record['rounds']} rounds: "
        f"{record['updates_per_sec']:.1f} updates/s, "
        f"resident peak {record['resident_peak']} "
        f"(bound {record['resident_bound']}, "
        f"bounded={record['memory_bounded']}), "
        f"rss {record['max_rss_mb']:.0f} MB, "
        f"deterministic={record['deterministic']} -> {args.out}"
    )
    # The record is timing-tainted by design (it IS a benchmark); the
    # gated flags themselves are clock-free.
    healthy = record["memory_bounded"] and record["deterministic"]
    return 0 if healthy else 1  # reprolint: disable=DET102


if __name__ == "__main__":
    raise SystemExit(main())
