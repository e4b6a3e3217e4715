"""Tests for FGSM, PGD and the Wasserstein-DRO ascent."""

import numpy as np
import pytest

from repro.attacks import (
    embed_inputs,
    fgsm,
    input_gradient,
    pgd,
    surrogate_objective,
    wasserstein_ascent,
)
from repro.autodiff import Tensor
from repro.nn import EmbeddingClassifier, LogisticRegression, cross_entropy

RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def trained_model():
    """A logistic-regression model fit on separable data."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 8))
    w_true = rng.normal(size=(8, 4)) * 2.0
    y = np.argmax(x @ w_true, axis=1)
    model = LogisticRegression(8, 4)
    params = model.init(rng)
    from repro.autodiff import grad
    from repro.nn.parameters import require_grad

    for _ in range(150):
        theta = require_grad(params)
        loss = cross_entropy(model.apply(theta, x), y)
        names = sorted(theta)
        grads = grad(loss, [theta[n] for n in names])
        params = {
            n: Tensor(theta[n].data - 0.5 * g.data) for n, g in zip(names, grads)
        }
    return model, params, x, y


class TestInputGradient:
    def test_shape_matches_input(self, trained_model):
        model, params, x, y = trained_model
        g = input_gradient(model, params, x, y)
        assert g.shape == x.shape

    def test_moving_along_gradient_increases_loss(self, trained_model):
        model, params, x, y = trained_model
        g = input_gradient(model, params, x, y)
        before = cross_entropy(model.apply(params, x), y).item()
        after = cross_entropy(model.apply(params, x + 0.01 * g), y).item()
        assert after > before

    def test_embed_inputs_passthrough_for_continuous(self, trained_model):
        model, _, x, _ = trained_model
        np.testing.assert_array_equal(embed_inputs(model, x), x)

    def test_embed_inputs_maps_token_ids(self):
        model = EmbeddingClassifier(
            vocab_size=7, embed_dim=3, seq_len=4, hidden_dims=(), num_classes=2
        )
        ids = RNG.integers(0, 7, size=(2, 4))
        out = embed_inputs(model, ids)
        assert out.shape == (2, 12)


class TestFGSM:
    def test_perturbation_bounded_by_xi(self, trained_model):
        model, params, x, y = trained_model
        adv = fgsm(model, params, x, y, xi=0.1)
        assert np.abs(adv - x).max() <= 0.1 + 1e-12

    def test_token_ids_are_perturbed_in_the_embedded_space(self):
        model = EmbeddingClassifier(
            vocab_size=11, embed_dim=4, seq_len=5, hidden_dims=(6,),
            num_classes=2,
        )
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 11, size=(7, 5))
        y = rng.integers(0, 2, size=7)
        params = model.init(rng)
        adv = fgsm(model, params, ids, y, xi=0.1)
        clean = embed_inputs(model, ids)
        assert adv.shape == clean.shape == (7, 20)
        g = input_gradient(model, params, ids, y)
        np.testing.assert_array_equal(adv, clean + 0.1 * np.sign(g))
        clean_loss = cross_entropy(model.apply(params, clean), y).item()
        adv_loss = cross_entropy(model.apply(params, adv), y).item()
        assert adv_loss > clean_loss

    def test_increases_loss(self, trained_model):
        model, params, x, y = trained_model
        adv = fgsm(model, params, x, y, xi=0.3)
        clean = cross_entropy(model.apply(params, x), y).item()
        attacked = cross_entropy(model.apply(params, adv), y).item()
        assert attacked > clean

    def test_zero_xi_is_identity(self, trained_model):
        model, params, x, y = trained_model
        np.testing.assert_array_equal(fgsm(model, params, x, y, xi=0.0), x)

    def test_negative_xi_raises(self, trained_model):
        model, params, x, y = trained_model
        with pytest.raises(ValueError):
            fgsm(model, params, x, y, xi=-0.1)

    def test_clip_range_respected(self, trained_model):
        model, params, x, y = trained_model
        adv = fgsm(model, params, x, y, xi=5.0, clip_range=(0.0, 1.0))
        assert adv.min() >= 0.0
        assert adv.max() <= 1.0

    def test_stronger_attack_hurts_more(self, trained_model):
        model, params, x, y = trained_model
        losses = []
        for xi in (0.05, 0.2, 0.5):
            adv = fgsm(model, params, x, y, xi=xi)
            losses.append(cross_entropy(model.apply(params, adv), y).item())
        assert losses[0] < losses[1] < losses[2]


class TestPGD:
    def test_stays_in_epsilon_ball(self, trained_model):
        model, params, x, y = trained_model
        adv = pgd(model, params, x, y, epsilon=0.1, step_size=0.05, steps=5)
        assert np.abs(adv - x).max() <= 0.1 + 1e-12

    def test_at_least_as_strong_as_fgsm(self, trained_model):
        model, params, x, y = trained_model
        eps = 0.2
        adv_fgsm = fgsm(model, params, x, y, xi=eps)
        adv_pgd = pgd(model, params, x, y, epsilon=eps, step_size=eps / 4, steps=10)
        loss_fgsm = cross_entropy(model.apply(params, adv_fgsm), y).item()
        loss_pgd = cross_entropy(model.apply(params, adv_pgd), y).item()
        assert loss_pgd >= loss_fgsm * 0.95

    def test_invalid_args(self, trained_model):
        model, params, x, y = trained_model
        with pytest.raises(ValueError):
            pgd(model, params, x, y, epsilon=-1, step_size=0.1, steps=3)
        with pytest.raises(ValueError):
            pgd(model, params, x, y, epsilon=0.1, step_size=0.1, steps=0)


class TestWassersteinAscent:
    def test_increases_surrogate_objective(self, trained_model):
        model, params, x, y = trained_model
        lam = 0.5
        adv = wasserstein_ascent(model, params, x, y, lam=lam, nu=0.2, steps=5)
        before = surrogate_objective(
            model, params, Tensor(x), y, x, lam
        ).item()
        after = surrogate_objective(
            model, params, Tensor(adv), y, x, lam
        ).item()
        assert after >= before

    def test_larger_lambda_keeps_samples_closer(self, trained_model):
        model, params, x, y = trained_model
        near = wasserstein_ascent(model, params, x, y, lam=2.0, nu=0.1, steps=8)
        far = wasserstein_ascent(model, params, x, y, lam=0.0, nu=0.1, steps=8)
        assert np.linalg.norm(near - x) < np.linalg.norm(far - x)

    def test_increases_plain_loss(self, trained_model):
        model, params, x, y = trained_model
        adv = wasserstein_ascent(model, params, x, y, lam=0.1, nu=0.2, steps=8)
        clean = cross_entropy(model.apply(params, x), y).item()
        attacked = cross_entropy(model.apply(params, adv), y).item()
        assert attacked > clean

    def test_invalid_args(self, trained_model):
        model, params, x, y = trained_model
        with pytest.raises(ValueError):
            wasserstein_ascent(model, params, x, y, lam=-1, nu=0.1, steps=3)
        with pytest.raises(ValueError):
            wasserstein_ascent(model, params, x, y, lam=1, nu=0.0, steps=3)
        with pytest.raises(ValueError):
            wasserstein_ascent(model, params, x, y, lam=1, nu=0.1, steps=0)

    def test_labels_never_change(self, trained_model):
        # The transport cost is infinite for label flips; the API expresses
        # this by construction — perturbed x is returned, y is reused.
        model, params, x, y = trained_model
        adv = wasserstein_ascent(model, params, x, y, lam=0.5, nu=0.2, steps=3)
        assert adv.shape == x.shape
