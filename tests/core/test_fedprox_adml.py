"""Tests for the FedProx and federated-ADML baselines."""

import numpy as np
import pytest

from repro.core import (
    ADMLConfig,
    FederatedADML,
    FedProx,
    FedProxConfig,
)
from repro.data import (
    MnistLikeConfig,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_mnist_like,
    generate_sent140_like,
    generate_synthetic,
)
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import to_vector


@pytest.fixture(scope="module")
def synthetic_workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=10, mean_samples=20, seed=1)
    )
    sources, targets = fed.split_sources_targets(0.8, np.random.default_rng(0))
    return fed, sources, targets


MODEL = LogisticRegression(60, 10)


class TestFedProxConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": 0.0}, {"mu_prox": -0.1}, {"t0": 0}],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            FedProxConfig(**kwargs)


class TestFedProx:
    def test_global_loss_decreases(self, synthetic_workload):
        fed, sources, _ = synthetic_workload
        cfg = FedProxConfig(
            learning_rate=0.05, mu_prox=0.1, t0=5, total_iterations=50, seed=0
        )
        result = FedProx(MODEL, cfg).fit(fed, sources)
        assert result.global_losses[-1] < result.global_losses[0]

    def test_zero_mu_matches_fedavg_updates(self, synthetic_workload):
        """With μ=0 the proximal term vanishes — FedProx == FedAvg."""
        from repro.core import FedAvg, FedAvgConfig

        fed, sources, _ = synthetic_workload
        init = MODEL.init(np.random.default_rng(5))
        prox = FedProx(
            MODEL,
            FedProxConfig(learning_rate=0.05, mu_prox=0.0, t0=5, total_iterations=10),
        ).fit(fed, sources, init_params=init)
        avg = FedAvg(
            MODEL,
            FedAvgConfig(learning_rate=0.05, t0=5, total_iterations=10),
        ).fit(fed, sources, init_params=init)
        np.testing.assert_allclose(
            to_vector(prox.params), to_vector(avg.params), rtol=1e-10
        )

    def test_proximal_term_limits_client_drift(self, synthetic_workload):
        """Stronger μ keeps pre-aggregation node parameters closer together."""
        fed, sources, _ = synthetic_workload
        init = MODEL.init(np.random.default_rng(5))

        def drift(mu_prox):
            result = FedProx(
                MODEL,
                FedProxConfig(
                    learning_rate=0.05, mu_prox=mu_prox, t0=20,
                    total_iterations=19,  # stop right before an aggregation
                ),
            ).fit(fed, sources, init_params=init)
            vectors = [to_vector(n.params) for n in result.nodes]
            center = np.mean(vectors, axis=0)
            return float(np.mean([np.linalg.norm(v - center) for v in vectors]))

        assert drift(mu_prox=1.0) < drift(mu_prox=0.0)

    def test_deterministic(self, synthetic_workload):
        fed, sources, _ = synthetic_workload
        cfg = FedProxConfig(learning_rate=0.05, t0=5, total_iterations=10, seed=2)
        r1 = FedProx(MODEL, cfg).fit(fed, sources)
        r2 = FedProx(MODEL, cfg).fit(fed, sources)
        np.testing.assert_array_equal(to_vector(r1.params), to_vector(r2.params))


@pytest.fixture(scope="module")
def mnist_workload():
    fed = generate_mnist_like(MnistLikeConfig(num_nodes=8, mean_samples=20, seed=4))
    sources, targets = fed.split_sources_targets(0.75, np.random.default_rng(0))
    return fed, sources, targets


MNIST_MODEL = LogisticRegression(64, 10)


class TestADMLConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"epsilon": -0.1}, {"alpha": 0.0}, {"k": 0}]
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            ADMLConfig(**kwargs)


class TestFederatedADML:
    def test_trains_and_loss_decreases(self, mnist_workload):
        fed, sources, _ = mnist_workload
        cfg = ADMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=20, k=5,
            epsilon=0.1, seed=0,
        )
        result = FederatedADML(MNIST_MODEL, cfg).fit(fed, sources)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_zero_epsilon_close_to_plain_fedml_but_double_counted(self, mnist_workload):
        """ε=0: the 'adversarial' sets equal the clean ones, so the outer
        loss is simply doubled — the run must still be stable and converge."""
        fed, sources, _ = mnist_workload
        cfg = ADMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=20, k=5,
            epsilon=0.0, seed=0,
        )
        result = FederatedADML(MNIST_MODEL, cfg).fit(fed, sources)
        assert result.global_meta_losses[-1] < result.global_meta_losses[0]

    def test_gradient_eval_accounting(self, mnist_workload):
        fed, sources, _ = mnist_workload
        cfg = ADMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=4, k=5, epsilon=0.1
        )
        result = FederatedADML(MNIST_MODEL, cfg).fit(fed, sources)
        # 4 gradient evaluations per local step (2 attacks + inner + outer).
        assert all(n.gradient_evaluations == 16 for n in result.nodes)

    def test_improves_adversarial_robustness_over_no_training(self, mnist_workload):
        from repro.attacks import fgsm
        from repro.metrics import evaluate_robustness, target_splits

        fed, sources, targets = mnist_workload
        cfg = ADMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=30, k=5,
            epsilon=0.1, seed=0,
        )
        result = FederatedADML(MNIST_MODEL, cfg).fit(fed, sources)
        splits = target_splits(fed, targets, k=5)
        report = evaluate_robustness(
            MNIST_MODEL, result.params, splits, alpha=0.05, adapt_steps=5,
            attack=lambda m, p, x, y: fgsm(m, p, x, y, xi=0.1, clip_range=(0, 1)),
        )
        untrained = evaluate_robustness(
            MNIST_MODEL, MNIST_MODEL.init(np.random.default_rng(3)), splits,
            alpha=0.05, adapt_steps=5,
            attack=lambda m, p, x, y: fgsm(m, p, x, y, xi=0.1, clip_range=(0, 1)),
        )
        assert report.adversarial_accuracy > untrained.adversarial_accuracy

    def test_trains_on_sent140_token_ids(self):
        """Token-id inputs: FGSM perturbs the embedded features, so the
        inner step trains on floats while the clean test set stays ids."""
        fed = generate_sent140_like(Sent140LikeConfig(num_nodes=6, seed=0))
        model = EmbeddingClassifier(
            vocab_size=fed.metadata["vocab_size"], embed_dim=4,
            seq_len=fed.metadata["seq_len"], hidden_dims=(8,),
            num_classes=2, batch_norm=True,
        )
        cfg = ADMLConfig(
            alpha=0.05, beta=0.05, t0=2, total_iterations=4, k=5, epsilon=0.1
        )
        result = FederatedADML(model, cfg).fit(fed, list(range(5)))
        assert np.isfinite(to_vector(result.params)).all()
        assert all(n.gradient_evaluations == 16 for n in result.nodes)
