"""Tests for hierarchical (edge→gateway→cloud) aggregation."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import FedML, FedMLConfig
from repro.data import Dataset, SyntheticConfig, generate_synthetic
from repro.engine import EngineOptions
from repro.faults import FaultPlan, KillSchedule, RunInterrupted
from repro.federated import Platform, build_nodes
from repro.federated.hierarchy import GatewayAssignment, HierarchicalPlatform
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

RNG = np.random.default_rng(0)


def make_nodes(sizes=(10, 20, 30, 40)):
    datasets = [
        Dataset(x=RNG.normal(size=(n, 4)), y=RNG.integers(0, 3, size=n))
        for n in sizes
    ]
    return build_nodes(datasets, k=3)


def make_tree(value):
    return {"w": Tensor(np.full(3, float(value)))}


class TestGatewayAssignment:
    def test_round_robin_covers_all_nodes(self):
        assignment = GatewayAssignment.round_robin([0, 1, 2, 3, 4], 2)
        assert set(assignment.node_to_gateway) == {0, 1, 2, 3, 4}
        assert assignment.num_gateways == 2

    def test_members(self):
        assignment = GatewayAssignment.round_robin([0, 1, 2, 3], 2)
        assert assignment.gateway_members(0) == [0, 2]
        assert assignment.gateway_members(1) == [1, 3]

    def test_invalid_gateway_count(self):
        with pytest.raises(ValueError):
            GatewayAssignment.round_robin([0, 1], 0)


class TestHierarchicalPlatform:
    def _platform(self, nodes, num_gateways=2):
        assignment = GatewayAssignment.round_robin(
            [n.node_id for n in nodes], num_gateways
        )
        return HierarchicalPlatform(assignment=assignment)

    def test_matches_flat_weighted_mean(self):
        """Hierarchical aggregation must equal the flat aggregation exactly."""
        nodes_flat = make_nodes()
        nodes_hier = make_nodes()
        for i, (a, b) in enumerate(zip(nodes_flat, nodes_hier)):
            a.params = make_tree(i + 1.0)
            b.params = make_tree(i + 1.0)

        flat = Platform()
        flat.global_params = make_tree(0.0)
        expected = flat.aggregate(nodes_flat)

        hier = self._platform(nodes_hier)
        hier.global_params = make_tree(0.0)
        result = hier.aggregate(nodes_hier)

        np.testing.assert_allclose(
            to_vector(result), to_vector(expected), atol=1e-12
        )

    def test_single_gateway_equals_flat(self):
        nodes = make_nodes()
        for i, node in enumerate(nodes):
            node.params = make_tree(i)
        hier = self._platform(nodes, num_gateways=1)
        hier.global_params = make_tree(0.0)
        result = hier.aggregate(nodes)
        flat_nodes = make_nodes()
        for i, node in enumerate(flat_nodes):
            node.params = make_tree(i)
        flat = Platform()
        flat.global_params = make_tree(0.0)
        expected = flat.aggregate(flat_nodes)
        np.testing.assert_allclose(to_vector(result), to_vector(expected))

    def test_wan_carries_gateway_count_not_node_count(self):
        nodes = make_nodes()
        hier = self._platform(nodes, num_gateways=2)
        hier.initialize(make_tree(0.0), nodes)
        hier.aggregate(nodes)
        wan_uploads = [
            r for r in hier.wan_log.records
            if r.direction == "up" and r.round_index == 1
        ]
        lan_uploads = [
            r for r in hier.lan_log.records
            if r.direction == "up" and r.round_index == 1
        ]
        assert len(wan_uploads) == 2  # one per gateway
        assert len(lan_uploads) == 4  # one per node

    def test_wan_cheaper_than_flat_platform(self):
        nodes_flat, nodes_hier = make_nodes(), make_nodes()
        flat = Platform()
        flat.initialize(make_tree(0.0), nodes_flat)
        flat.aggregate(nodes_flat)

        hier = self._platform(nodes_hier, num_gateways=2)
        hier.initialize(make_tree(0.0), nodes_hier)
        hier.aggregate(nodes_hier)

        assert hier.wan_log.uplink_bytes < flat.comm_log.uplink_bytes

    def test_comm_log_property_is_wan(self):
        nodes = make_nodes()
        hier = self._platform(nodes)
        assert hier.comm_log is hier.wan_log

    def test_missing_assignment_raises(self):
        nodes = make_nodes()
        assignment = GatewayAssignment.round_robin([99], 1)
        hier = HierarchicalPlatform(assignment=assignment)
        hier.global_params = make_tree(0.0)
        for node in nodes:
            node.params = make_tree(1.0)
        with pytest.raises(KeyError):
            hier.aggregate(nodes)

    def test_trains_fedml_end_to_end(self):
        fed = generate_synthetic(
            SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=8, mean_samples=18, seed=2)
        )
        model = LogisticRegression(60, 10)
        sources = list(range(8))
        assignment = GatewayAssignment.round_robin(sources, 2)
        runner = FedML(
            model,
            FedMLConfig(alpha=0.05, beta=0.05, t0=5, total_iterations=20, k=5),
            platform=HierarchicalPlatform(assignment=assignment),
        )
        result = runner.fit(fed, sources)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_transfer_before_training_raises(self):
        hier = HierarchicalPlatform(
            assignment=GatewayAssignment.round_robin([0, 1], 1)
        )
        with pytest.raises(RuntimeError):
            hier.transfer_to_target()


class TestHierarchicalFits:
    """A runner on a hierarchical platform: each fit starts from no rounds
    and empty ledgers, and a killed fit resumes bit-equal."""

    SOURCES = list(range(8))

    def _fed(self):
        return generate_synthetic(
            SyntheticConfig(
                alpha=0.5, beta=0.5, num_nodes=8, mean_samples=18, seed=2
            )
        )

    def _runner(self, **kwargs):
        assignment = GatewayAssignment.round_robin(self.SOURCES, 2)
        return FedML(
            LogisticRegression(60, 10),
            FedMLConfig(alpha=0.05, beta=0.05, t0=2, total_iterations=6, k=5),
            platform=HierarchicalPlatform(assignment=assignment),
            **kwargs,
        )

    def test_a_second_fit_equals_a_fresh_runners(self):
        fed = self._fed()
        runner = self._runner()
        runner.fit(fed, self.SOURCES)
        again = runner.fit(fed, self.SOURCES)
        want = self._runner().fit(fed, self.SOURCES)
        assert np.array_equal(to_vector(again.params), to_vector(want.params))
        assert again.history.records == want.history.records
        assert again.platform.rounds_completed == 3
        assert want.platform.rounds_completed == 3
        for ledger in ("wan_log", "lan_log"):
            got = getattr(again.platform, ledger)
            expected = getattr(want.platform, ledger)
            assert got.records == expected.records
            assert got.uplink_bytes == expected.uplink_bytes
            assert got.downlink_bytes == expected.downlink_bytes

    def test_killed_fit_resumes_bit_equal(self, tmp_path):
        fed = self._fed()
        options = EngineOptions(
            faults=FaultPlan([KillSchedule(block=1)]),
            checkpoint_path=str(tmp_path / "run.ckpt"),
        )
        with pytest.raises(RunInterrupted):
            self._runner(engine_options=options).fit(fed, self.SOURCES)
        resumed = self._runner(engine_options=options).fit(
            fed, self.SOURCES, resume=True
        )
        want = self._runner().fit(fed, self.SOURCES)
        assert np.array_equal(
            to_vector(resumed.params), to_vector(want.params)
        )
        assert resumed.history.records == want.history.records
        assert resumed.platform.rounds_completed == 3
        assert want.platform.rounds_completed == 3
        assert resumed.platform.wan_log.uplink_bytes == (
            want.platform.wan_log.uplink_bytes
        )
        assert resumed.platform.wan_log.downlink_bytes == (
            want.platform.wan_log.downlink_bytes
        )
        # The LAN ledger restarts empty: it holds the resumed round alone.
        assert resumed.platform.lan_log.records == [
            r for r in want.platform.lan_log.records if r.round_index == 3
        ]
