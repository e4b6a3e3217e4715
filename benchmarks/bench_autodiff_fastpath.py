"""Ablation — autodiff fast path: closed-form kernels against the tape.

:mod:`repro.autodiff.fastpath` is the switch between the closed-form
kernels of :mod:`repro.nn.batched` (with the fused cross-entropy ops) and
the generic tape, whose one reference backward serves every ``grad`` call.
The workload is the one the paper's FedML algorithm runs — the per-node
exact meta-gradient — timed with the fast path on vs. fully disabled (the
``--no-fastpath`` tape: the exact inner step with ``create_graph=True``,
then the outer backward).  With the fast path on, each call builds and
runs ``repro.nn.batched.batched_meta_gradient`` on a one-node stack.

Correctness is part of the record: every per-node gradient tensor must be
within the kernel's tolerance of the reference,
``|g - g_ref|_inf <= 1e-12 * |g_ref|_inf`` (``within_tolerance``), and the
largest such ratio is recorded as ``max_rel_err``.

The stacked leg times one exact step of the vectorized executor on the
``fedml_sent140_vec`` shapes (24 nodes, the Sent140 embedding MLP, 5-shot
train and 27-sample test batches) with the closed-form kernel
``repro.nn.batched.batched_meta_gradient``'s gradient-only call, and the
same 24 nodes' steps on the tape (``fastpath.disabled()``, the path every
node the kernel declines runs), over a short trajectory.  Per node, every
tensor must be within ``1e-12`` of that node's largest tape gradient entry
(``stacked_within_tolerance``; worst ratio in ``stacked_max_rel_err``).

The first-order leg times ``repro.nn.batched.batched_loss_gradient``
against the tape (``fastpath.disabled()``) on two workloads: the
``fleet_1m`` local step, LogReg(16,4) parameter gradients on fleet shards,
and the ``robust_mnist`` Wasserstein ascent, LogReg(64,10) with Ta = 10.
Per node, every gradient tensor must be within ``1e-12`` of its largest
tape entry, and the ascent's ``x*`` within ``1e-12`` of the tape's largest
perturbation ``|x* − x0|`` (``first_order_within_tolerance``; worst ratio
in ``first_order_max_rel_err``).

Standalone mode writes the CI artifact ``BENCH_autodiff.json``::

    PYTHONPATH=src python benchmarks/bench_autodiff_fastpath.py \
        --repeats 30 --out BENCH_autodiff.json
"""

import argparse
import json
import time
from contextlib import nullcontext

import numpy as np

from repro.attacks import wasserstein_ascent
from repro.autodiff import Tensor, fastpath
from repro.core.maml import meta_gradient
from repro.data import (
    MnistLikeConfig,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_mnist_like,
    generate_sent140_like,
    generate_synthetic,
)
from repro.data.dataset import Dataset, NodeSplit
from repro.engine.evaluation import loss_gradient
from repro.federated.fleet import SyntheticShardFactory
from repro.nn import cross_entropy
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.batched import batched_meta_gradient, stack_params
from repro.nn.parameters import require_grad

#: relative tolerance of the exact meta-gradient kernel (docs/AUTODIFF.md)
REL_TOL = 1e-12


def build_workload(nodes=8, k=5, mean_samples=120):
    """The FedML per-node setup: K-shot splits of a synthetic federation."""
    model = LogisticRegression(60, 10)
    fed = generate_synthetic(
        SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=nodes,
            mean_samples=mean_samples, seed=1,
        )
    )
    splits = [fed.node_split(i, k) for i in range(nodes)]
    params = require_grad(model.init(np.random.default_rng(0)))
    return model, splits, params


def sweep(model, splits, params, alpha, repeats):
    """Run ``repeats`` epochs of per-node meta-gradients.

    Returns the seconds taken and the last epoch's gradient trees.
    """
    grads = []
    start = time.perf_counter()
    for _ in range(repeats):
        grads = [
            meta_gradient(model, params, split, alpha)[0] for split in splits
        ]
    elapsed = time.perf_counter() - start
    return elapsed, grads


def max_relative_error(fast, ref):
    """Largest ``|g - g_ref|_inf / |g_ref|_inf`` over nodes and tensors."""
    return max(
        float(
            np.max(np.abs(f[name].data - r[name].data))
            / np.max(np.abs(r[name].data))
        )
        for f, r in zip(fast, ref)
        for name in r
    )


def build_stacked_workload(nodes=24, k=5, samples=32):
    """The ``fedml_sent140_vec`` block: stacked θ and train/test batches."""
    fed = generate_sent140_like(
        Sent140LikeConfig(num_nodes=nodes, min_samples=samples, seed=1)
    )
    model = EmbeddingClassifier(
        vocab_size=fed.metadata["vocab_size"], embed_dim=16,
        seq_len=fed.metadata["seq_len"], hidden_dims=(32, 16),
        num_classes=2, batch_norm=True, embedding_seed=0,
    )
    splits = [node.subset(range(samples)).split(k) for node in fed.nodes]
    train = (
        np.stack([tr.x for tr, _ in splits]),
        np.stack([tr.y for tr, _ in splits]),
    )
    test = (
        np.stack([te.x for _, te in splits]),
        np.stack([te.y for _, te in splits]),
    )
    rng = np.random.default_rng(0)
    stacked = stack_params([model.init(rng) for _ in range(nodes)])
    return model, stacked, train, test


def node_relative_error(fast, ref):
    """Largest ``|g - g_ref|_inf`` over the raw arrays ``fast``, per node
    scaled by that node's largest reference entry (biases feeding BN are
    exactly zero)."""
    nodes = next(iter(ref.values())).shape[0]
    worst = 0.0
    for i in range(nodes):
        scale = max(np.max(np.abs(r.data[i])) for r in ref.values())
        for name, r in ref.items():
            err = np.max(np.abs(fast[name][i] - r.data[i]))
            worst = max(worst, float(err / scale))
    return worst


def per_node_tape(model, stacked, train, test, alpha):
    """Every node's exact meta-gradient from the per-node tape, stacked."""
    grads = []
    with fastpath.disabled():
        for i in range(len(train[1])):
            split = NodeSplit(
                Dataset(train[0][i], train[1][i]),
                Dataset(test[0][i], test[1][i]),
            )
            params = {name: Tensor(t.data[i]) for name, t in stacked.items()}
            grads.append(meta_gradient(model, params, split, alpha)[0])
    return {
        name: Tensor(np.stack([g[name].data for g in grads]))
        for name in grads[0]
    }


def run_stacked_comparison(steps=20, alpha=0.05, beta=0.05):
    """Kernel vs per-node tape along a ``steps``-step training trajectory."""
    model, stacked, train, test = build_stacked_workload()
    names = sorted(stacked)
    kernel = batched_meta_gradient(model, train, [test], alpha)
    assert kernel is not None
    # Warm-up outside the timed region; a training step reads the gradient.
    kernel({name: t.data for name, t in stacked.items()}, gradient=True)
    per_node_tape(model, stacked, train, test, alpha)
    kernel_s = tape_s = 0.0
    worst = 0.0
    for _ in range(steps):
        start = time.perf_counter()
        fast = kernel(
            {name: t.data for name, t in stacked.items()}, gradient=True
        ).gradient
        kernel_s += time.perf_counter() - start
        start = time.perf_counter()
        ref = per_node_tape(model, stacked, train, test, alpha)
        tape_s += time.perf_counter() - start
        worst = max(worst, node_relative_error(fast, ref))
        stacked = {
            name: Tensor(stacked[name].data - beta * fast[name])
            for name in names
        }
    return {
        "stacked_steps": steps,
        "stacked_kernel_ms": 1e3 * kernel_s / steps,
        "stacked_tape_ms": 1e3 * tape_s / steps,
        "stacked_speedup": tape_s / kernel_s,
        "stacked_within_tolerance": bool(worst <= REL_TOL),
        "stacked_max_rel_err": worst,
    }


def timed_both(call, repeats):
    """Milliseconds per ``call()`` with the kernel, then with the tape (one
    warm-up each), and each side's last result."""
    timings = []
    for switch in (nullcontext(), fastpath.disabled()):
        with switch:
            call()
            start = time.perf_counter()
            for _ in range(repeats):
                result = call()
            elapsed = time.perf_counter() - start
            timings.append((1e3 * elapsed / repeats, result))
    (kernel_ms, fast), (tape_ms, ref) = timings
    return kernel_ms, tape_ms, fast, ref


def run_first_order_comparison(repeats=5):
    """The first-order kernel against the tape on its two workloads."""
    shards = SyntheticShardFactory(seed=1)
    fleet_model = LogisticRegression(shards.input_dim, shards.num_classes)
    fleet_params = fleet_model.init(np.random.default_rng(0))
    fleet_data = [shards.make(i) for i in range(64)]

    def fleet_step():
        return [
            loss_gradient(fleet_model, fleet_params, d, cross_entropy)
            for d in fleet_data
        ]

    mnist = generate_mnist_like(MnistLikeConfig(num_nodes=24, seed=1))
    mnist_model = LogisticRegression(64, 10)
    phi = mnist_model.init(np.random.default_rng(0))
    batches = [mnist.node_split(i, 5).test for i in range(24)]

    def ascent():
        return [
            wasserstein_ascent(mnist_model, phi, d.x, d.y, lam=1.0, nu=1.0,
                               steps=10)
            for d in batches
        ]

    fleet_kernel_ms, fleet_tape_ms, fast, ref = timed_both(fleet_step, repeats)
    fleet_err = max_relative_error(fast, ref)
    ascent_kernel_ms, ascent_tape_ms, fast, ref = timed_both(ascent, repeats)
    ascent_err = max(
        float(np.max(np.abs(f - r)) / np.max(np.abs(r - d.x)))
        for f, r, d in zip(fast, ref, batches)
    )
    worst = max(fleet_err, ascent_err)
    return {
        "first_order_fleet_kernel_ms": fleet_kernel_ms / len(fleet_data),
        "first_order_fleet_tape_ms": fleet_tape_ms / len(fleet_data),
        "first_order_ascent_kernel_ms": ascent_kernel_ms / len(batches),
        "first_order_ascent_tape_ms": ascent_tape_ms / len(batches),
        "first_order_within_tolerance": bool(worst <= REL_TOL),
        "first_order_max_rel_err": worst,
    }


def run_comparison(nodes=8, k=5, repeats=30, alpha=0.01):
    """Time the meta-gradient sweep with the fast path on and off."""
    model, splits, params = build_workload(nodes=nodes, k=k)
    calls = repeats * nodes

    # Warm-up outside the timed region: steady-state cost is what the
    # training loop sees.
    fastpath.reset_stats()
    fast_warm, _ = sweep(model, splits, params, alpha, 1)
    fast_s, fast_grads = sweep(model, splits, params, alpha, repeats)
    stats = fastpath.stats().as_dict()

    with fastpath.disabled():
        ref_warm, _ = sweep(model, splits, params, alpha, 1)
        ref_s, ref_grads = sweep(model, splits, params, alpha, repeats)
    max_rel_err = max_relative_error(fast_grads, ref_grads)

    stacked = run_stacked_comparison()
    first_order = run_first_order_comparison()
    return {
        "nodes": nodes,
        "k_shot": k,
        "repeats": repeats,
        "meta_gradient_calls": calls,
        "reference_seconds": ref_s,
        "fastpath_seconds": fast_s,
        "reference_calls_per_sec": calls / ref_s,
        "fastpath_calls_per_sec": calls / fast_s,
        "speedup": ref_s / fast_s,
        "within_tolerance": bool(max_rel_err <= REL_TOL),
        "max_rel_err": max_rel_err,
        "fastpath_stats": stats,
        **stacked,
        **first_order,
    }


def test_ablation_autodiff_fastpath(benchmark):
    """Pytest entry: fastpath gradients are within tolerance and faster."""
    result = benchmark.pedantic(
        run_comparison, kwargs={"repeats": 10}, rounds=1, iterations=1
    )
    assert result["within_tolerance"], (
        f"fastpath diverged from reference: {result['max_rel_err']:.3g}"
    )
    assert result["stacked_within_tolerance"], (
        f"stacked kernel diverged from the tape: "
        f"{result['stacked_max_rel_err']:.3g}"
    )
    assert result["first_order_within_tolerance"], (
        f"first-order kernel diverged from the tape: "
        f"{result['first_order_max_rel_err']:.3g}"
    )
    assert result["fastpath_stats"]["fused_dispatches"] > 0
    assert result["speedup"] > 1.0, (
        f"fast path slower than reference: {result['speedup']:.2f}x"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--out", default="BENCH_autodiff.json")
    args = parser.parse_args()

    result = run_comparison(nodes=args.nodes, k=args.k, repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(
        f"{result['meta_gradient_calls']} meta-gradient calls: "
        f"reference {result['reference_calls_per_sec']:.1f}/s, "
        f"fastpath {result['fastpath_calls_per_sec']:.1f}/s "
        f"({result['speedup']:.2f}x, "
        f"max_rel_err={result['max_rel_err']:.3g}, "
        f"within_tolerance={result['within_tolerance']}); "
        f"stacked step: tape {result['stacked_tape_ms']:.2f} ms, "
        f"kernel {result['stacked_kernel_ms']:.2f} ms "
        f"({result['stacked_speedup']:.2f}x, "
        f"max_rel_err={result['stacked_max_rel_err']:.3g}, "
        f"within_tolerance={result['stacked_within_tolerance']}); "
        f"first order: fleet step tape "
        f"{result['first_order_fleet_tape_ms']:.3f} ms, kernel "
        f"{result['first_order_fleet_kernel_ms']:.3f} ms; ascent tape "
        f"{result['first_order_ascent_tape_ms']:.2f} ms, kernel "
        f"{result['first_order_ascent_kernel_ms']:.2f} ms "
        f"(max_rel_err={result['first_order_max_rel_err']:.3g}, "
        f"within_tolerance={result['first_order_within_tolerance']}) "
        f"-> {args.out}"
    )
    ok = (
        result["within_tolerance"]
        and result["stacked_within_tolerance"]
        and result["first_order_within_tolerance"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
