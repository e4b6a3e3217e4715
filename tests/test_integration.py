"""End-to-end integration tests combining multiple subsystems."""

import numpy as np
import pytest

from repro.core import FedML, FedMLConfig, evaluate_adaptation
from repro.data import SyntheticConfig, generate_synthetic
from repro.federated import (
    CompressedPlatform,
    DropoutInjector,
    FullParticipation,
    Platform,
    UniformQuantizer,
)
from repro.metrics import target_splits
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=10, mean_samples=20, seed=1)
    )
    sources, targets = fed.split_sources_targets(0.8, np.random.default_rng(0))
    return fed, sources, targets


MODEL = LogisticRegression(60, 10)
BASE = dict(alpha=0.05, beta=0.05, t0=5, total_iterations=40, k=5, seed=0)


class TestCompressedTraining:
    def test_fedml_trains_through_quantized_uploads(self, workload):
        fed, sources, _ = workload
        runner = FedML(
            MODEL,
            FedMLConfig(**BASE),
            platform=CompressedPlatform(UniformQuantizer(bits=8)),
        )
        result = runner.fit(fed, sources)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_quantized_run_close_to_full_precision(self, workload):
        fed, sources, _ = workload
        init = MODEL.init(np.random.default_rng(7))
        full = FedML(MODEL, FedMLConfig(**BASE)).fit(fed, sources, init_params=init)
        quant = FedML(
            MODEL,
            FedMLConfig(**BASE),
            platform=CompressedPlatform(UniformQuantizer(bits=16)),
        ).fit(fed, sources, init_params=init)
        drift = np.linalg.norm(to_vector(full.params) - to_vector(quant.params))
        scale = np.linalg.norm(to_vector(full.params))
        assert drift < 0.05 * scale


class TestFaultTolerantTraining:
    def test_training_survives_random_dropouts(self, workload):
        fed, sources, _ = workload
        participation = DropoutInjector(
            FullParticipation(), rate=0.4, rng=np.random.default_rng(3)
        )
        runner = FedML(MODEL, FedMLConfig(**BASE), participation=participation)
        result = runner.fit(fed, sources)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]
        # All nodes stay synchronized despite dropouts.
        reference = to_vector(result.nodes[0].params)
        for node in result.nodes[1:]:
            np.testing.assert_array_equal(to_vector(node.params), reference)

    def test_dropout_run_adapts_at_targets(self, workload):
        fed, sources, targets = workload
        participation = DropoutInjector(
            FullParticipation(), rate=0.3, rng=np.random.default_rng(4)
        )
        result = FedML(
            MODEL, FedMLConfig(**BASE), participation=participation
        ).fit(fed, sources)
        splits = target_splits(fed, targets, k=5)
        curve = evaluate_adaptation(
            MODEL, result.params, splits, alpha=0.05, max_steps=5
        )
        assert curve.losses[5] < curve.losses[0]


class TestFullPipelineDeterminism:
    def test_two_identical_pipelines_agree_bit_for_bit(self, workload):
        fed, sources, targets = workload

        def pipeline():
            result = FedML(MODEL, FedMLConfig(**BASE)).fit(fed, sources)
            splits = target_splits(fed, targets, k=5)
            curve = evaluate_adaptation(
                MODEL, result.params, splits, alpha=0.05, max_steps=3
            )
            return to_vector(result.params), curve.losses

        params_a, losses_a = pipeline()
        params_b, losses_b = pipeline()
        np.testing.assert_array_equal(params_a, params_b)
        assert losses_a == losses_b

    def test_comm_accounting_consistent_with_rounds(self, workload):
        fed, sources, _ = workload
        platform = Platform()
        result = FedML(MODEL, FedMLConfig(**BASE), platform=platform).fit(
            fed, sources
        )
        rounds = platform.rounds_completed
        uploads = sum(
            1 for r in platform.comm_log.records if r.direction == "up"
        )
        assert uploads == rounds * len(result.nodes)


class TestPrivacyPipeline:
    def test_secure_aggregation_matches_plain_fedml_round(self, workload):
        """One FedML aggregation computed through secure masking equals the
        platform's weighted average (with node-side pre-scaling)."""
        from repro.federated import SecureAggregator
        from repro.federated.aggregation import weighted_mean
        from repro.nn.batched import stack_params

        fed, sources, _ = workload
        runner = FedML(MODEL, FedMLConfig(**BASE))
        nodes = runner.build_source_nodes(fed, sources)
        platform = Platform()
        platform.initialize(MODEL.init(np.random.default_rng(0)), nodes)
        for node in nodes:
            runner.local_step(node)

        weights = np.array([n.weight for n in nodes])
        weights = weights / weights.sum()
        expected = weighted_mean(
            stack_params([n.params for n in nodes]), weights
        )

        agg = SecureAggregator([n.node_id for n in nodes], seed=5)
        masked = [
            agg.mask(
                n.node_id, 1, agg.prescale(n.params, w, len(nodes))
            )
            for n, w in zip(nodes, weights)
        ]
        secure = agg.aggregate(masked, weights.tolist())
        np.testing.assert_allclose(
            to_vector(secure), to_vector(expected), atol=1e-9
        )
