"""Ablation — round-engine executors: serial vs stacked throughput.

The unified round engine runs each node's T0-step block through a pluggable
``Executor``.  ``SerialExecutor`` runs the nodes one by one and is the
reference; :class:`VectorizedExecutor` builds *one* stacked ``(N, ...)``
computation per group of same-shaped nodes, so the per-step Python
overhead is paid once per group rather than once per node.  Both run one
block loop that differs only in how it groups nodes, so the vectorized
result equals serial bit for bit (``np.array_equal``), and each executor
repeats its own result bit for bit.

``run_comparison`` times both executors on an 8-node MLP FedML fit and
reports ``speedup`` (serial_s / vectorized_s), ``serial_bit_reproducible``
(a serial double run), ``vectorized_bit_reproducible`` and
``vectorized_matches_serial``.  ``run_scale_comparison`` isolates the
executor itself: it times ``run_block`` on a 50-node FedAvg/LogReg fleet
with uniform shards, where per-node compute is tiny and stacking pays
most, and reports ``vectorized50_speedup_vs_serial`` and
``vectorized50_matches_serial``.  Every time is the faster of two runs.

Gates: the standalone exit code and the pytest entries require
``speedup >= 0.75`` and ``vectorized50_speedup_vs_serial >= 3.0``.  Five
runs on a 2-vCPU host (Python 3.11, NumPy 2.4) gave ``speedup``
0.94–1.11 and ``vectorized50_speedup_vs_serial`` 4.5–6.8, so the gates
sit 20% and 33% under the slowest run.  The 8-node leg barely stacks:
its power-law shards all differ in size, so every node forms its own
group and the stacked fit does the serial fit's work.

Standalone mode writes the CI artifact ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine_executors.py \
        --nodes 8 --out BENCH_engine.json
"""

import argparse
import json
import os
import time

import numpy as np

from repro.core import FedML, FedMLConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.data.dataset import FederatedDataset
from repro.engine import SerialExecutor, VectorizedExecutor
from repro.nn import MLP
from repro.nn.parameters import to_vector

#: minimum 8-node fit speedup (serial_s / vectorized_s)
MIN_SPEEDUP = 0.75
#: minimum 50-node ``run_block`` speedup of the stacked path over serial
MIN_SCALE_SPEEDUP = 3.0


def build_workload(nodes, mean_samples=400):
    model = MLP(60, (128, 64), 10)
    fed = generate_synthetic(
        SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=nodes,
            mean_samples=mean_samples, seed=1,
        )
    )
    return model, fed, list(range(nodes))


def make_runner(model, total_iterations, t0, executor=None):
    cfg = FedMLConfig(
        alpha=0.01, beta=0.05, t0=t0, total_iterations=total_iterations,
        k=5, eval_every=10_000, seed=0,
    )
    return FedML(model, cfg, executor=executor)


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def timed_fit(model, fed, sources, total_iterations, t0, executor):
    """One FedML fit: ``(seconds, flat final params)``."""
    runner = make_runner(model, total_iterations, t0, executor=executor)
    start = time.perf_counter()
    result = runner.fit(fed, sources)
    return time.perf_counter() - start, to_vector(result.params)


def run_comparison(nodes=8, total_iterations=40, t0=5):
    """Time serial and vectorized FedML fits; return the comparison record."""
    model, fed, sources = build_workload(nodes)
    aggregations = total_iterations // t0
    args = (model, fed, sources, total_iterations, t0)

    serial_s, serial = timed_fit(*args, SerialExecutor())
    rerun_s, serial_rerun = timed_fit(*args, SerialExecutor())
    serial_s = min(serial_s, rerun_s)
    vectorized_s, vectorized = timed_fit(*args, VectorizedExecutor())
    rerun_s, vectorized_rerun = timed_fit(*args, VectorizedExecutor())
    vectorized_s = min(vectorized_s, rerun_s)
    return {
        "nodes": nodes,
        "total_iterations": total_iterations,
        "t0": t0,
        "rounds": aggregations,
        "cpus": available_cpus(),
        "serial_seconds": serial_s,
        "vectorized_seconds": vectorized_s,
        "serial_rounds_per_sec": aggregations / serial_s,
        "vectorized_rounds_per_sec": aggregations / vectorized_s,
        "speedup": serial_s / vectorized_s,
        "serial_bit_reproducible": bool(
            np.array_equal(serial, serial_rerun)
        ),
        "vectorized_matches_serial": bool(np.array_equal(serial, vectorized)),
        "vectorized_bit_reproducible": bool(
            np.array_equal(vectorized, vectorized_rerun)
        ),
    }


def timed_blocks(executor, strategy, fed, init, blocks, t0):
    """One warmup block, then ``blocks`` timed ones: ``(seconds, params)``."""
    from repro.nn.parameters import detach

    nodes = strategy.build_nodes(fed, list(range(len(fed.nodes))))
    for node in nodes:
        node.params = detach(init)
    executor.run_block(strategy, nodes, t0, block_index=0, base_seed=0)
    start = time.perf_counter()
    for block in range(1, blocks + 1):
        executor.run_block(strategy, nodes, t0, block_index=block, base_seed=0)
    elapsed = time.perf_counter() - start
    return elapsed, np.concatenate([to_vector(n.params) for n in nodes])


def run_scale_comparison(nodes=50, blocks=8, t0=5):
    """Serial vs stacked ``run_block`` at fleet scale, uniform node data.

    One warmup block per run first, then ``blocks`` timed blocks.  The
    serial executor calls the first-order kernel once per node per local
    step; the stacked path once per local step.
    """
    from repro.core import FedAvgConfig
    from repro.engine import SgdStrategy
    from repro.nn import LogisticRegression

    model = LogisticRegression(60, 10)
    fed = generate_synthetic(
        SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=nodes, mean_samples=30, seed=1
        )
    )
    size = min(len(d) for d in fed.nodes)
    fed = FederatedDataset(
        name=fed.name,
        nodes=[d.subset(range(size)) for d in fed.nodes],
        num_classes=fed.num_classes,
        metadata=dict(fed.metadata),
    )
    cfg = FedAvgConfig(
        learning_rate=0.05, t0=t0, total_iterations=t0 * (blocks + 1),
        eval_every=10_000, seed=0,
    )
    init = model.init(np.random.default_rng(0))
    args = (SgdStrategy(model, cfg), fed, init, blocks, t0)

    serial_s, serial = timed_blocks(SerialExecutor(), *args)
    rerun_s, _ = timed_blocks(SerialExecutor(), *args)
    serial_s = min(serial_s, rerun_s)
    vectorized_s, vectorized = timed_blocks(VectorizedExecutor(), *args)
    rerun_s, rerun = timed_blocks(VectorizedExecutor(), *args)
    vectorized_s = min(vectorized_s, rerun_s)
    return {
        "scale_nodes": nodes,
        "scale_rounds": blocks,
        "serial50_seconds": serial_s,
        "vectorized50_seconds": vectorized_s,
        "serial50_rounds_per_sec": blocks / serial_s,
        "vectorized50_rounds_per_sec": blocks / vectorized_s,
        "vectorized50_speedup_vs_serial": serial_s / vectorized_s,
        "vectorized50_matches_serial": bool(
            np.array_equal(serial, vectorized)
        ),
        "vectorized50_bit_reproducible": bool(
            np.array_equal(vectorized, rerun)
        ),
    }


def test_ablation_vectorized_executor(benchmark):
    """Pytest entry: both executors repeat themselves bit for bit, and
    the stacked fit equals serial bit for bit at no real cost."""
    result = benchmark.pedantic(
        run_comparison, kwargs={"nodes": 8}, rounds=1, iterations=1
    )
    assert result["serial_bit_reproducible"], (
        "two serial runs of the same config diverged"
    )
    assert result["vectorized_matches_serial"], (
        "vectorized run differs from serial"
    )
    assert result["vectorized_bit_reproducible"], (
        "two vectorized runs of the same config diverged"
    )
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"stacked fit at {result['speedup']:.2f}x of serial speed at "
        f"{result['nodes']} nodes"
    )


def test_ablation_vectorized_scale(benchmark):
    """Pytest entry: the stacked path beats serial at 50 nodes."""
    result = benchmark.pedantic(
        run_scale_comparison, kwargs={"nodes": 50}, rounds=1, iterations=1
    )
    assert result["vectorized50_matches_serial"], (
        "vectorized run differs from serial at 50 nodes"
    )
    assert result["vectorized50_speedup_vs_serial"] >= MIN_SCALE_SPEEDUP, (
        f"stacked path only "
        f"{result['vectorized50_speedup_vs_serial']:.1f}x over serial "
        f"at {result['scale_nodes']} nodes"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--t0", type=int, default=5)
    parser.add_argument("--scale-nodes", type=int, default=50)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args()

    result = run_comparison(
        nodes=args.nodes, total_iterations=args.iterations, t0=args.t0
    )
    result.update(run_scale_comparison(nodes=args.scale_nodes))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(
        f"{result['nodes']} nodes on {result['cpus']} cpus, "
        f"{result['rounds']} rounds: "
        f"serial {result['serial_rounds_per_sec']:.2f} r/s "
        f"(bit_reproducible={result['serial_bit_reproducible']}), "
        f"vectorized {result['vectorized_rounds_per_sec']:.2f} r/s "
        f"({result['speedup']:.2f}x, "
        f"matches_serial={result['vectorized_matches_serial']}, "
        f"bit_reproducible={result['vectorized_bit_reproducible']})"
    )
    print(
        f"{result['scale_nodes']} nodes scale: "
        f"serial {result['serial50_rounds_per_sec']:.2f} r/s, "
        f"vectorized {result['vectorized50_rounds_per_sec']:.2f} r/s "
        f"({result['vectorized50_speedup_vs_serial']:.1f}x, "
        f"matches_serial={result['vectorized50_matches_serial']}) "
        f"-> {args.out}"
    )
    healthy = (
        result["serial_bit_reproducible"]
        and result["vectorized_matches_serial"]
        and result["vectorized_bit_reproducible"]
        and result["vectorized50_matches_serial"]
        and result["vectorized50_bit_reproducible"]
        and result["speedup"] >= MIN_SPEEDUP
        and result["vectorized50_speedup_vs_serial"] >= MIN_SCALE_SPEEDUP
    )
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
