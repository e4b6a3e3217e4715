"""Tests for Robust FedML (Algorithm 2) and federated Reptile."""

import numpy as np
import pytest

from repro.core import (
    FederatedReptile,
    ReptileConfig,
    RobustFedML,
    RobustFedMLConfig,
)
from repro.data import MnistLikeConfig, generate_mnist_like
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector


@pytest.fixture(scope="module")
def workload():
    fed = generate_mnist_like(
        MnistLikeConfig(num_nodes=8, mean_samples=20, seed=4)
    )
    sources, targets = fed.split_sources_targets(0.75, np.random.default_rng(0))
    return fed, sources, targets


MODEL = LogisticRegression(64, 10)


class TestRobustConfig:
    def test_defaults(self):
        cfg = RobustFedMLConfig()
        assert cfg.nu == 1.0
        assert cfg.ta == 10
        assert cfg.n0 == 7
        assert cfg.r_max == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -0.1},
            {"nu": 0.0},
            {"ta": 0},
            {"n0": 0},
            {"r_max": -1},
            {"alpha": 0.0},
            {"t0": -1},
            {"t0": 0},
            {"total_iterations": 0},
            {"k": 0},
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            RobustFedMLConfig(**kwargs)

    def test_as_fedml_preserves_shared_knobs(self):
        cfg = RobustFedMLConfig(alpha=0.03, beta=0.07, t0=4, k=6)
        plain = cfg.as_fedml()
        assert plain.alpha == 0.03
        assert plain.beta == 0.07
        assert plain.t0 == 4
        assert plain.k == 6


class TestRobustFedML:
    def _run(self, workload, **overrides):
        fed, sources, _ = workload
        kwargs = dict(
            alpha=0.05, beta=0.05, t0=2, total_iterations=12, k=5,
            lam=0.5, nu=0.5, ta=3, n0=2, r_max=2, seed=0,
        )
        kwargs.update(overrides)
        cfg = RobustFedMLConfig(**kwargs)
        return RobustFedML(MODEL, cfg).fit(fed, sources)

    def test_training_runs_and_loss_decreases(self, workload):
        result = self._run(workload, total_iterations=20)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_adversarial_generation_schedule(self, workload):
        # generation every n0*t0 = 4 iterations, capped at r_max = 2 rounds,
        # each adding |D_test| samples.
        result = self._run(workload)
        for node in result.nodes:
            expected = 2 * len(node.split.test)
            assert node.adversarial is not None
            assert len(node.adversarial) == expected

    def test_r_max_zero_generates_nothing(self, workload):
        result = self._run(workload, r_max=0)
        assert all(
            n.adversarial is None or len(n.adversarial) == 0 for n in result.nodes
        )

    def test_adversarial_counts_accessor(self, workload):
        result = self._run(workload)
        counts = result.adversarial_counts()
        assert len(counts) == len(result.nodes)
        assert all(c > 0 for c in counts)

    def test_adversarial_samples_keep_labels(self, workload):
        result = self._run(workload)
        node = result.nodes[0]
        test_labels = set(node.split.test.y.tolist())
        adv_labels = set(node.adversarial.y.tolist())
        assert adv_labels.issubset(test_labels)

    def test_adversarial_samples_deviate_from_clean(self, workload):
        result = self._run(workload)
        node = result.nodes[0]
        # perturbed inputs should not be identical to any clean test input
        diffs = np.abs(
            node.adversarial.x[:, None, :] - node.split.test.x[None]
        ).sum(axis=2)
        assert diffs.min() > 1e-8

    def test_deterministic(self, workload):
        r1 = self._run(workload)
        r2 = self._run(workload)
        np.testing.assert_array_equal(to_vector(r1.params), to_vector(r2.params))

    def test_smaller_lambda_perturbs_more(self, workload):
        # nu * 2 * lam must stay below 1 for the paper's plain ascent rule to
        # be stable, so compare lambdas within the stable range.
        strong = self._run(workload, lam=0.01, nu=0.1)
        weak = self._run(workload, lam=4.0, nu=0.1)

        def mean_shift(result):
            shifts = []
            for node in result.nodes:
                clean = node.split.test.x
                adv = node.adversarial.x[: len(clean)]
                shifts.append(np.linalg.norm(adv - clean[: len(adv)], axis=1).mean())
            return np.mean(shifts)

        assert mean_shift(strong) > mean_shift(weak)


class TestFederatedReptile:
    def test_runs_and_improves(self, workload):
        fed, sources, _ = workload
        cfg = ReptileConfig(
            inner_lr=0.05, outer_lr=0.5, inner_steps=3, t0=2,
            total_iterations=20, k=5, seed=0,
        )
        result = FederatedReptile(MODEL, cfg).fit(fed, sources)
        losses = result.history.series("global_meta_loss")
        assert losses[-1] < losses[0]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ReptileConfig(inner_lr=0.0)
        with pytest.raises(ValueError):
            ReptileConfig(inner_steps=0)

    def test_counts_inner_steps_as_gradient_evals(self, workload):
        fed, sources, _ = workload
        cfg = ReptileConfig(inner_steps=3, t0=2, total_iterations=4, k=5)
        result = FederatedReptile(MODEL, cfg).fit(fed, sources)
        assert all(n.gradient_evaluations == 12 for n in result.nodes)
