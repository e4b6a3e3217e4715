"""Tests for edge nodes, aggregation, and the platform."""

import warnings

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.data import Dataset
from repro.federated import (
    CompressedPlatform,
    DropoutInjector,
    EdgeNode,
    FullParticipation,
    GatewayAssignment,
    HierarchicalPlatform,
    Platform,
    UniformQuantizer,
    UniformSampler,
    build_nodes,
    coordinate_median,
    trimmed_mean,
    weighted_mean,
)
from repro.nn.batched import stack_params
from repro.nn.parameters import l2_distance
from repro.utils.serialization import serialize_params

RNG = np.random.default_rng(0)


def make_datasets(sizes=(10, 20, 30)):
    return [
        Dataset(x=RNG.normal(size=(n, 4)), y=RNG.integers(0, 3, size=n))
        for n in sizes
    ]


def make_tree(value):
    return {"w": Tensor(np.full(3, float(value)))}


class TestBuildNodes:
    def test_weights_proportional_to_data(self):
        nodes = build_nodes(make_datasets((10, 30)), k=3)
        assert nodes[0].weight == pytest.approx(0.25)
        assert nodes[1].weight == pytest.approx(0.75)

    def test_weights_sum_to_one(self):
        nodes = build_nodes(make_datasets(), k=3)
        assert sum(n.weight for n in nodes) == pytest.approx(1.0)

    def test_k_shot_split(self):
        nodes = build_nodes(make_datasets((10,)), k=4)
        assert len(nodes[0].split.train) == 4
        assert len(nodes[0].split.test) == 6

    def test_custom_ids(self):
        nodes = build_nodes(make_datasets((10, 20)), k=3, node_ids=[7, 9])
        assert [n.node_id for n in nodes] == [7, 9]

    def test_id_mismatch_raises(self):
        with pytest.raises(ValueError):
            build_nodes(make_datasets((10,)), k=3, node_ids=[1, 2])

    def test_combined_test_set_without_adversarial(self):
        node = build_nodes(make_datasets((10,)), k=3)[0]
        assert len(node.combined_test_set()) == 7

    def test_combined_test_set_with_adversarial(self):
        node = build_nodes(make_datasets((10,)), k=3)[0]
        node.adversarial = Dataset(
            x=RNG.normal(size=(5, 4)), y=RNG.integers(0, 3, size=5)
        )
        assert len(node.combined_test_set()) == 12

    def test_record_local_step(self):
        node = build_nodes(make_datasets((10,)), k=3)[0]
        node.record_local_step()
        node.record_local_step(gradient_evals=3)
        assert node.local_steps == 2
        assert node.gradient_evaluations == 5


class TestAggregationRules:
    def test_weighted_mean_exact(self):
        out = weighted_mean(
            stack_params([make_tree(0.0), make_tree(10.0)]), [0.3, 0.7]
        )
        np.testing.assert_allclose(out["w"].data, np.full(3, 7.0))

    def test_median_ignores_outlier(self):
        trees = [make_tree(1.0), make_tree(2.0), make_tree(1000.0)]
        out = coordinate_median(stack_params(trees))
        np.testing.assert_allclose(out["w"].data, np.full(3, 2.0))

    def test_trimmed_mean_removes_tails(self):
        trees = [make_tree(v) for v in (1.0, 2.0, 3.0, 4.0, 1000.0)]
        out = trimmed_mean(stack_params(trees), trim_fraction=0.2)
        np.testing.assert_allclose(out["w"].data, np.full(3, 3.0))

    def test_trimmed_mean_zero_trim_is_mean(self):
        trees = [make_tree(v) for v in (1.0, 3.0)]
        out = trimmed_mean(stack_params(trees), trim_fraction=0.0)
        np.testing.assert_allclose(out["w"].data, np.full(3, 2.0))

    def test_trimmed_mean_invalid_fraction(self):
        with pytest.raises(ValueError):
            trimmed_mean(stack_params([make_tree(1.0)]), trim_fraction=0.5)

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            coordinate_median({"w": Tensor(np.zeros((0, 3)))})


class TestPlatform:
    def _nodes(self):
        return build_nodes(make_datasets((10, 30)), k=3)

    def test_initialize_broadcasts(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(5.0), nodes)
        for node in nodes:
            np.testing.assert_allclose(node.params["w"].data, np.full(3, 5.0))

    def test_aggregate_matches_manual_average(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(0.0), nodes)
        nodes[0].params = make_tree(4.0)
        nodes[1].params = make_tree(8.0)
        out = platform.aggregate(nodes)
        expected = 0.25 * 4.0 + 0.75 * 8.0
        np.testing.assert_allclose(out["w"].data, np.full(3, expected))

    def test_aggregate_renormalizes_partial_participation(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(0.0), nodes)
        nodes[1].params = make_tree(8.0)
        out = platform.aggregate([nodes[1]])
        np.testing.assert_allclose(out["w"].data, np.full(3, 8.0))

    def test_aggregate_charges_communication(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(0.0), nodes)
        platform.aggregate(nodes)
        # init broadcast: 2 downloads; aggregate: 2 uploads + 2 downloads
        assert platform.comm_log.uplink_bytes > 0
        assert platform.comm_log.downlink_bytes > platform.comm_log.uplink_bytes / 2
        assert platform.rounds_completed == 1

    def test_aggregate_without_params_raises(self):
        platform = Platform()
        nodes = self._nodes()
        platform.global_params = make_tree(0.0)
        nodes[0].params = None
        with pytest.raises(RuntimeError):
            platform.aggregate(nodes)

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            Platform().aggregate([])

    def test_aggregate_zero_weight_sum_raises(self):
        """Regression: a participating subset whose weights sum to zero
        used to renormalize to NaN and silently poison global_params."""
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(1.0), nodes)
        for node in nodes:
            node.weight = 0.0
        with pytest.raises(ValueError, match="positive finite total"):
            platform.aggregate(nodes)
        # The failed round must not have replaced the global model.
        np.testing.assert_allclose(
            platform.global_params["w"].data, np.full(3, 1.0)
        )

    def test_aggregate_non_finite_weight_sum_raises(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(1.0), nodes)
        nodes[0].weight = float("nan")
        with pytest.raises(ValueError, match="positive finite total"):
            platform.aggregate(nodes)

    def test_transfer_to_target_roundtrips(self):
        platform = Platform()
        nodes = self._nodes()
        platform.initialize(make_tree(3.0), nodes)
        transferred = platform.transfer_to_target()
        assert l2_distance(transferred, platform.global_params) == 0.0

    def test_transfer_without_model_raises(self):
        with pytest.raises(RuntimeError):
            Platform().transfer_to_target()

    def test_custom_aggregator(self):
        platform = Platform(aggregator=lambda trees, weights: coordinate_median(trees))
        nodes = build_nodes(make_datasets((10, 10, 10)), k=3)
        platform.initialize(make_tree(0.0), nodes)
        nodes[0].params = make_tree(1.0)
        nodes[1].params = make_tree(2.0)
        nodes[2].params = make_tree(50.0)
        out = platform.aggregate(nodes)
        np.testing.assert_allclose(out["w"].data, np.full(3, 2.0))



def every_platform(nodes):
    """One of each platform kind, over ``nodes``, two gateways for the tree."""
    return [
        Platform(),
        CompressedPlatform(UniformQuantizer(8)),
        HierarchicalPlatform(
            assignment=GatewayAssignment.round_robin(
                [node.node_id for node in nodes], 2
            )
        ),
    ]


def comm_logs(platform):
    if isinstance(platform, HierarchicalPlatform):
        return [platform.lan_log, platform.wan_log]
    return [platform.comm_log]


class TestWeightGuard:
    """Every platform runs one weight check before it changes any state."""

    @pytest.mark.parametrize(
        "weights",
        [(0.0, 0.0, 0.0), (-1.0, 2.0, 1.0), (float("nan"), 1.0, 1.0)],
        ids=["all-zero", "one-negative", "one-nan"],
    )
    def test_bad_weights_raise_one_error_and_change_nothing(self, weights):
        messages = set()
        for index in range(3):
            nodes = build_nodes(make_datasets((10, 20, 30)), k=3)
            platform = every_platform(nodes)[index]
            platform.initialize(make_tree(1.0), nodes)
            for value, (node, weight) in enumerate(zip(nodes, weights)):
                node.params = make_tree(float(value))
                node.weight = weight
            uploads = [node.params for node in nodes]
            theta = platform.global_params
            records = [list(log.records) for log in comm_logs(platform)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    platform.aggregate(nodes)
            messages.add(str(info.value))
            assert platform.rounds_completed == 0
            assert [log.records for log in comm_logs(platform)] == records
            assert platform.global_params is theta
            assert all(n.params is p for n, p in zip(nodes, uploads))
        (message,) = messages
        assert "positive finite total" in message
        assert "np.float64" not in message

    def test_negative_weight_is_rejected_not_extrapolated(self):
        """Weights (−1, 2) on values 0 and 1 once returned 2, outside the
        uploads' convex hull."""
        platform = Platform()
        nodes = build_nodes(make_datasets((10, 10)), k=3)
        platform.initialize(make_tree(0.0), nodes)
        nodes[1].params = make_tree(1.0)
        nodes[0].weight, nodes[1].weight = -1.0, 2.0
        with pytest.raises(ValueError, match="non-negative"):
            platform.aggregate(nodes)


class TestPlatformBytes:
    """The byte logs hold wire sizes, computed without encoding a tree."""

    @staticmethod
    def _tree(value):
        # A non-ASCII name and a 0-d tensor exercise every field's size.
        return {
            "wé": Tensor(np.full((2, 3), float(value))),
            "s": Tensor(np.float64(value)),
        }

    def test_every_log_holds_serialized_sizes(self):
        for index in range(3):
            nodes = build_nodes(make_datasets((10, 20, 30)), k=3)
            platform = every_platform(nodes)[index]
            platform.initialize(self._tree(0.0), nodes)
            for value, node in enumerate(nodes):
                node.params = self._tree(value + 1.0)
            uploads = [node.params for node in nodes]
            platform.aggregate(nodes)
            wire = len(serialize_params(platform.global_params))
            if isinstance(platform, CompressedPlatform):
                compressed = [len(platform.compressor.compress(p)) for p in uploads]
                up = [r.num_bytes for r in platform.comm_log.records
                      if r.direction == "up"]
                assert up == compressed
            for log in comm_logs(platform):
                for record in log.records:
                    if record.direction == "down" or not isinstance(
                        platform, CompressedPlatform
                    ):
                        assert record.num_bytes == wire, (index, record)

    def test_broadcast_shares_the_global_arrays_read_only(self):
        platform = Platform()
        nodes = build_nodes(make_datasets((10, 20)), k=3)
        platform.initialize(make_tree(0.0), nodes)
        out = platform.aggregate(nodes)
        for node in nodes:
            assert node.params["w"] is not out["w"]
            assert np.shares_memory(node.params["w"].data, out["w"].data)
            assert not node.params["w"].data.flags.writeable


class TestSampling:
    def _nodes(self):
        return build_nodes(make_datasets((10, 10, 10, 10)), k=3)

    def test_full_participation(self):
        nodes = self._nodes()
        assert FullParticipation().select(nodes, 1) == nodes

    def test_uniform_sampler_size(self):
        nodes = self._nodes()
        sampler = UniformSampler(0.5, np.random.default_rng(0))
        assert len(sampler.select(nodes, 1)) == 2

    def test_uniform_sampler_subset(self):
        nodes = self._nodes()
        sampler = UniformSampler(0.5, np.random.default_rng(0))
        chosen = sampler.select(nodes, 1)
        assert all(n in nodes for n in chosen)

    def test_uniform_invalid_fraction(self):
        with pytest.raises(ValueError):
            UniformSampler(0.0, np.random.default_rng(0))

    def test_dropout_keeps_at_least_one(self):
        nodes = self._nodes()
        injector = DropoutInjector(
            FullParticipation(), rate=0.99, rng=np.random.default_rng(0)
        )
        for round_index in range(10):
            assert len(injector.select(nodes, round_index)) >= 1

    def test_dropout_zero_rate_is_identity(self):
        nodes = self._nodes()
        injector = DropoutInjector(
            FullParticipation(), rate=0.0, rng=np.random.default_rng(0)
        )
        assert injector.select(nodes, 1) == nodes

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            DropoutInjector(FullParticipation(), rate=1.0, rng=np.random.default_rng(0))
