"""Hypothesis property tests for the federated substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.federated import (
    GatewayAssignment,
    HierarchicalPlatform,
    Platform,
    coordinate_median,
    trimmed_mean,
    weighted_mean,
)
from repro.federated.privacy import SecureAggregator
from repro.nn.batched import stack_params
from repro.nn.parameters import to_vector


def trees_from_seeds(seeds):
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append({"w": Tensor(rng.normal(size=6))})
    return out


@given(st.lists(st.integers(0, 10_000), min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_weighted_mean_in_convex_hull(seeds):
    trees = trees_from_seeds(seeds)
    weights = [1.0 / len(trees)] * len(trees)
    out = to_vector(weighted_mean(stack_params(trees), weights))
    stacked = np.stack([to_vector(t) for t in trees])
    assert np.all(out <= stacked.max(axis=0) + 1e-12)
    assert np.all(out >= stacked.min(axis=0) - 1e-12)


@given(st.lists(st.integers(0, 10_000), min_size=3, max_size=9))
@settings(max_examples=30, deadline=None)
def test_median_and_trimmed_mean_in_value_range(seeds):
    trees = trees_from_seeds(seeds)
    stacked = np.stack([to_vector(t) for t in trees])
    for rule in (
        lambda: coordinate_median(stack_params(trees)),
        lambda: trimmed_mean(stack_params(trees), 0.2),
    ):
        out = to_vector(rule())
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)


@given(
    st.lists(st.integers(0, 10_000), min_size=2, max_size=6, unique=True),
    st.integers(0, 100),
)
@settings(max_examples=25, deadline=None)
def test_secure_aggregation_masks_always_cancel(seeds, round_index):
    node_ids = list(range(len(seeds)))
    agg = SecureAggregator(node_ids, seed=1)
    trees = trees_from_seeds(seeds)
    masked = [
        agg.mask(i, round_index, tree) for i, tree in zip(node_ids, trees)
    ]
    result = to_vector(agg.aggregate(masked, [1.0 / len(trees)] * len(trees)))
    expected = np.mean([to_vector(t) for t in trees], axis=0)
    np.testing.assert_allclose(result, expected, atol=1e-8)


@given(
    st.integers(2, 10),
    st.integers(1, 5),
)
@settings(max_examples=25, deadline=None)
def test_hierarchical_equals_flat_for_any_topology(num_nodes, num_gateways):
    from repro.data import Dataset
    from repro.federated import build_nodes

    rng = np.random.default_rng(num_nodes * 100 + num_gateways)
    datasets = []
    for _ in range(num_nodes):
        count = int(rng.integers(8, 20))
        datasets.append(
            Dataset(
                x=rng.normal(size=(count, 3)),
                y=rng.integers(0, 2, size=count),
            )
        )
    nodes_flat = build_nodes(datasets, k=2)
    nodes_hier = build_nodes(datasets, k=2)
    for i, (a, b) in enumerate(zip(nodes_flat, nodes_hier)):
        tree = {"w": Tensor(rng.normal(size=4))}
        a.params = {"w": Tensor(tree["w"].data.copy())}
        b.params = {"w": Tensor(tree["w"].data.copy())}

    flat = Platform()
    flat.global_params = {"w": Tensor(np.zeros(4))}
    expected = flat.aggregate(nodes_flat)

    assignment = GatewayAssignment.round_robin(
        [n.node_id for n in nodes_hier], min(num_gateways, num_nodes)
    )
    hier = HierarchicalPlatform(assignment=assignment)
    hier.global_params = {"w": Tensor(np.zeros(4))}
    result = hier.aggregate(nodes_hier)
    np.testing.assert_allclose(
        to_vector(result), to_vector(expected), atol=1e-10
    )
