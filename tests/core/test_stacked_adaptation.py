"""The stacked target protocol equals one target at a time, bit for bit.

``evaluate_adaptation`` steps every group of targets whose train sets stack
(one ``batch_key``) with one first-order kernel call per step on the
group's stacked θ, and scores each step through the fused
``softmax_xent``.  The per-target loop kept here — one ``adapt`` step at a
time, ``cross_entropy(model.apply(...)).item()`` and ``accuracy`` — is the
protocol as written, and the curves must equal it in ``float.hex``: with
two train sizes interleaved (two groups), ragged test sets, with the fast
path on and under ``fastpath.disabled()``.  Bad input fails before any
work, naming the target.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.adaptation as adaptation
from repro.autodiff import Tensor, fastpath
from repro.core import adapt, evaluate_adaptation
from repro.data.dataset import Dataset, NodeSplit
from repro.nn import accuracy, cross_entropy
from repro.nn.parameters import detach

from ..nn.test_batched_meta_gradient import build_model

#: LogReg, MLPs with BN on and off under ReLU and tanh, the embedding model
MODELS = st.sampled_from(
    [
        ("logreg", (), False, "relu"),
        ("mlp", (5,), False, "relu"),
        ("mlp", (4, 3), False, "tanh"),
        ("mlp", (5,), True, "relu"),
        ("mlp", (3, 4), True, "tanh"),
        ("embedding", (5, 3), False, "relu"),
        ("embedding", (4,), True, "relu"),
    ]
)
ALPHA = 0.3


def reference(model, params, targets, alpha, max_steps):
    """The protocol one target and one step at a time."""
    sum_losses = [0.0] * (max_steps + 1)
    sum_accs = [0.0] * (max_steps + 1)
    for split in targets:
        current = detach(params)
        for step in range(max_steps + 1):
            if step > 0:
                current = adapt(model, current, split.train, alpha)
            logits = model.apply(current, split.test.x)
            sum_losses[step] += cross_entropy(logits, split.test.y).item()
            sum_accs[step] += accuracy(logits, split.test.y)
    count = float(len(targets))
    return [v / count for v in sum_losses], [v / count for v in sum_accs]


def target_splits(model, rng, sizes):
    """One target per ``(K, test size)``; token ids for the embedding
    model, features for the others."""
    def data(n):
        if hasattr(model, "seq_len"):
            x = rng.integers(0, model.vocab_size, size=(n, model.seq_len))
        else:
            x = rng.normal(size=(n, model.input_dim))
        return Dataset(x, rng.integers(0, model.output_dim, size=n))

    return [NodeSplit(data(k), data(n)) for k, n in sizes]


def perturbed_init(model, rng):
    return {
        name: Tensor(t.data + 0.3 * rng.normal(size=t.shape))
        for name, t in model.init(rng).items()
    }


def hexes(values):
    return [v.hex() for v in values]


@given(
    model_args=MODELS,
    ks=st.tuples(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    ),
    test_sizes=st.lists(
        st.integers(min_value=1, max_value=7), min_size=1, max_size=5
    ),
    max_steps=st.sampled_from([0, 1, 5]),
    fast=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_curves_equal_the_per_target_loop_in_float_hex(
    model_args, ks, test_sizes, max_steps, fast, seed
):
    rng = np.random.default_rng(seed)
    model = build_model(*model_args)
    params = perturbed_init(model, rng)
    # The two Ks alternate, so their groups interleave in target order.
    sizes = [(ks[i % 2], n) for i, n in enumerate(test_sizes)]
    targets = target_splits(model, rng, sizes)
    with nullcontext() if fast else fastpath.disabled():
        curve = evaluate_adaptation(
            model, params, targets, ALPHA, max_steps=max_steps
        )
        losses, accs = reference(model, params, targets, ALPHA, max_steps)
    assert hexes(curve.losses) == hexes(losses)
    assert hexes(curve.accuracies) == hexes(accs)


class CountingBuilds:
    """Wraps ``batched_loss_gradient``: counts kernel builds and calls."""

    def __init__(self, build):
        self.build = build
        self.builds = 0
        self.calls = 0

    def __call__(self, *args, **kwargs):
        kernel = self.build(*args, **kwargs)
        if kernel is None:
            return None
        self.builds += 1

        def counted(*call_args, **call_kwargs):
            self.calls += 1
            return kernel(*call_args, **call_kwargs)

        return counted


def two_group_problem():
    rng = np.random.default_rng(3)
    model = build_model("mlp", (5,), True, "relu")
    params = perturbed_init(model, rng)
    sizes = [(3, 4), (5, 2), (3, 6), (5, 3), (3, 1), (5, 5)]
    return model, params, target_splits(model, rng, sizes)


def test_a_group_builds_one_kernel_and_calls_it_once_per_step(monkeypatch):
    """Six targets in two groups, four steps: two builds and eight kernel
    calls, not 24; the fused count adds one ``softmax_xent`` per target
    per scored step.  With the fast path off nothing is built or fused."""
    model, params, targets = two_group_problem()
    spy = CountingBuilds(adaptation.batched_loss_gradient)
    monkeypatch.setattr(adaptation, "batched_loss_gradient", spy)
    before = fastpath.stats().fused_dispatches
    evaluate_adaptation(model, params, targets, ALPHA, max_steps=4)
    assert (spy.builds, spy.calls) == (2, 8)
    assert fastpath.stats().fused_dispatches - before == 8 + 6 * 5
    with fastpath.disabled():
        before = fastpath.stats().fused_dispatches
        evaluate_adaptation(model, params, targets, ALPHA, max_steps=4)
        assert fastpath.stats().fused_dispatches == before
    assert (spy.builds, spy.calls) == (2, 8)


def test_a_tree_that_is_not_the_models_runs_the_per_target_loop(
    monkeypatch,
):
    """An extra entry in θ: no group is stacked, and the per-target loop
    (where the tape steps that tree) gives the curve."""
    model, params, targets = two_group_problem()
    params = dict(params, extra=Tensor(np.ones(2)))
    spy = CountingBuilds(adaptation.batched_loss_gradient)
    monkeypatch.setattr(adaptation, "batched_loss_gradient", spy)
    curve = evaluate_adaptation(model, params, targets, ALPHA, max_steps=2)
    assert spy.builds == 0
    losses, accs = reference(model, params, targets, ALPHA, 2)
    assert hexes(curve.losses) == hexes(losses)
    assert hexes(curve.accuracies) == hexes(accs)


class TestBadInput:
    def test_negative_max_steps_raises(self):
        model, params, targets = two_group_problem()
        with pytest.raises(ValueError, match="max_steps"):
            evaluate_adaptation(model, params, targets, ALPHA, max_steps=-1)

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_an_empty_set_names_its_target(self, empty, monkeypatch):
        model, params, targets = two_group_problem()
        split = targets[4]
        none = Dataset(split.train.x[:0], split.train.y[:0])
        targets[4] = NodeSplit(
            none if empty == "train" else split.train,
            none if empty == "test" else split.test,
        )
        spy = CountingBuilds(adaptation.batched_loss_gradient)
        monkeypatch.setattr(adaptation, "batched_loss_gradient", spy)
        with pytest.raises(ValueError, match="target 4 "):
            evaluate_adaptation(model, params, targets, ALPHA, max_steps=2)
        assert spy.builds == 0  # raised before any work
