"""``G(θ) = Σ ω_i G_i(θ)`` evaluated with the exact kernel, one call per group.

``MetaStrategy.global_meta_loss`` groups nodes whose batches share shapes
and reads every ``G_i`` of a group from one kernel call on θ broadcast over
it.  Each value must stay within 1e-12 relative of the tape's
``meta_loss``; where the kernel declines (fast path off, ``inner_steps``
other than 1, another loss), the result must be the tape's reduce bit for
bit.  The same path runs on every executor.
"""

import struct
from contextlib import nullcontext

import numpy as np
import pytest

from repro.autodiff import fastpath
from repro.core import FedMLConfig, RobustFedMLConfig, meta_loss
from repro.data import (
    FederatedDataset,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_sent140_like,
    generate_synthetic,
)
from repro.engine import AdversarialStrategy, MetaStrategy, strategies
from repro.engine.evaluation import weighted_node_average
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.losses import cross_entropy

REL_TOL = 1e-12
CONFIG = FedMLConfig(alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=5)


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    yield
    fastpath.enable()


def synthetic():
    """Power-law node sizes: several multi-node groups and lone nodes."""
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=16, mean_samples=12,
                        seed=1)
    )
    return fed, LogisticRegression(60, 10)


def sent140():
    """Batch norm on the outer batch; half the nodes trimmed to one size."""
    fed = generate_sent140_like(
        Sent140LikeConfig(num_nodes=10, min_samples=12, seed=2)
    )
    fed = FederatedDataset(
        name=fed.name,
        nodes=[
            node.subset(range(12)) if i % 2 else node
            for i, node in enumerate(fed.nodes)
        ],
        num_classes=fed.num_classes,
        metadata=fed.metadata,
    )
    model = EmbeddingClassifier(
        vocab_size=fed.metadata["vocab_size"], embed_dim=8,
        seq_len=fed.metadata["seq_len"], hidden_dims=(12, 6), num_classes=2,
        batch_norm=True, embedding_seed=0,
    )
    return fed, model


def build(federation, config=CONFIG, loss_fn=cross_entropy, cls=MetaStrategy):
    fed, model = federation
    strategy = cls(model, config, loss_fn=loss_fn)
    nodes = strategy.build_nodes(fed, list(range(len(fed.nodes))))
    for node in nodes:
        strategy.init_node_state(node)
    params = model.init(np.random.default_rng(7))
    return strategy, nodes, params


def group_sizes(nodes):
    sizes = {}
    for node in nodes:
        key = strategies._split_shapes(node.split)
        sizes[key] = sizes.get(key, 0) + 1
    return sorted(sizes.values())


def tape_values(strategy, params, nodes):
    cfg = strategy.config
    return {
        node.node_id: meta_loss(
            strategy.model, params, node.split, cfg.alpha,
            inner_steps=cfg.inner_steps, loss_fn=strategy.loss_fn,
        )
        for node in nodes
    }


def evaluated_values(strategy, params, nodes, monkeypatch):
    """``global_meta_loss`` and the per-node values its reduce received."""
    seen = {}
    real = strategies.weighted_node_average

    def spy(reduced, value_fn):
        for node in reduced:
            seen[node.node_id] = value_fn(node)
        return real(reduced, value_fn)

    monkeypatch.setattr(strategies, "weighted_node_average", spy)
    before = fastpath.stats().fused_dispatches
    total = strategy.global_meta_loss(params, nodes)
    dispatches = fastpath.stats().fused_dispatches - before
    return total, seen, dispatches


@pytest.mark.parametrize("federation", [synthetic, sent140])
def test_each_node_within_tolerance_of_the_tape(federation, monkeypatch):
    strategy, nodes, params = build(federation())
    sizes = group_sizes(nodes)
    assert sizes[0] == 1 and sizes[-1] > 1  # lone nodes and real stacks
    total, got, dispatches = evaluated_values(
        strategy, params, nodes, monkeypatch
    )
    assert dispatches == len(sizes)  # one kernel call per group
    ref = tape_values(strategy, params, nodes)
    assert got.keys() == ref.keys()
    for node_id, value in ref.items():
        assert abs(got[node_id] - value) <= REL_TOL * abs(value), node_id
    expected = weighted_node_average(nodes, lambda n: ref[n.node_id])
    assert abs(total - expected) <= REL_TOL * abs(expected)


def test_robust_fedml_evaluates_stacked_while_training_serially(monkeypatch):
    config = RobustFedMLConfig(
        alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=5, ta=1, n0=1,
        r_max=1,
    )
    strategy, nodes, params = build(sent140(), config, cls=AdversarialStrategy)
    # Training takes the stacked block too: one node per group on the
    # serial executor.
    assert all(strategy.vectorized_signature(n) is not None for n in nodes)
    _, got, dispatches = evaluated_values(strategy, params, nodes, monkeypatch)
    assert dispatches == len(group_sizes(nodes))
    for node_id, value in tape_values(strategy, params, nodes).items():
        assert abs(got[node_id] - value) <= REL_TOL * abs(value), node_id


def doubled_xent(logits, labels):
    return cross_entropy(logits, labels) * 2.0


@pytest.mark.parametrize(
    "setup",
    ["fast path off", "inner_steps=2", "custom loss"],
)
def test_declined_groups_reduce_exactly_as_the_tape(setup, monkeypatch):
    config = (
        FedMLConfig(alpha=0.05, k=5, inner_steps=2)
        if setup == "inner_steps=2" else CONFIG
    )
    loss_fn = doubled_xent if setup == "custom loss" else cross_entropy
    strategy, nodes, params = build(synthetic(), config, loss_fn)
    built = []
    real = strategies.batched_meta_gradient

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(strategies, "batched_meta_gradient", spy)
    # The reference runs under the same switch: with the fast path on,
    # meta_loss's inner step would take the first-order kernel.
    switch = fastpath.disabled() if setup == "fast path off" else nullcontext()
    with switch:
        got = strategy.global_meta_loss(params, nodes)
        ref = tape_values(strategy, params, nodes)
    assert built == [None] * len(group_sizes(nodes))
    expected = weighted_node_average(nodes, lambda n: ref[n.node_id])
    assert struct.pack("<d", got) == struct.pack("<d", expected)


def test_first_order_config_still_takes_the_exact_kernel(monkeypatch):
    config = FedMLConfig(alpha=0.05, k=5, first_order=True)
    strategy, nodes, params = build(synthetic(), config)
    _, got, dispatches = evaluated_values(strategy, params, nodes, monkeypatch)
    assert dispatches == len(group_sizes(nodes))
    for node_id, value in tape_values(strategy, params, nodes).items():
        assert abs(got[node_id] - value) <= REL_TOL * abs(value), node_id
