"""The stacked exact meta-gradient kernel against the stacked tape.

``batched_meta_gradient`` replaces the vectorized executor's exact
one-step MAML tape for every model ``supports_batched_loss`` accepts.  Its
recorded contract (docs/AUTODIFF.md): per node, every gradient tensor is
within ``1e-12`` of that node's largest reference gradient entry on the
paper's model, and within ``1e-11`` over random tiny problems, where batch
norm over two or three samples loses digits in the tape and the kernel
alike.  Every case it declines returns ``None`` so the tape runs unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fastpath
from repro.core import FedMLConfig
from repro.engine import MetaStrategy
from repro.nn import MLP, EmbeddingClassifier, LogisticRegression, cross_entropy
from repro.nn.batched import batched_meta_gradient, stack_params

#: the kernel's tolerance, relative to a node's largest reference entry
REL_TOL = 1e-12
#: the same bound over random tiny problems; the largest gap measured over
#: 15,000 draws was 1.1e-12, from 2-sample batch norm (docs/AUTODIFF.md)
PROPERTY_TOL = 1e-11
VOCAB = 30


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.reset_stats()
    yield
    fastpath.enable()


def build_model(kind, hidden, batch_norm, activation, seq_len=3, embed_dim=4):
    dim = seq_len * embed_dim
    if kind == "logreg":
        return LogisticRegression(dim, 3)
    if kind == "mlp":
        return MLP(dim, hidden, 3, activation=activation, batch_norm=batch_norm)
    # The embedding model's head is always ReLU.
    return EmbeddingClassifier(
        VOCAB, embed_dim, seq_len, hidden, 2, batch_norm=batch_norm
    )


def problem(model, nodes, n_train, n_test, seed, token_ids):
    """Perturbed stacked parameters plus stacked train/test batches."""
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(nodes):
        tree = model.init(rng)
        trees.append(
            {
                name: Tensor(t.data + 0.3 * rng.normal(size=t.shape))
                for name, t in tree.items()
            }
        )

    def batch(size):
        if token_ids:
            shape = (nodes, size, model.seq_len)
            x = rng.integers(0, model.vocab_size, size=shape)
        else:
            x = rng.normal(size=(nodes, size, 12))
        return x, rng.integers(0, model.output_dim, size=(nodes, size))

    return stack_params(trees), batch(n_train), batch(n_test)


def tape_gradient(model, stacked, train, test, alpha, **config):
    strategy = MetaStrategy(model, FedMLConfig(alpha=alpha, **config))
    return strategy._stacked_tape_gradient(
        stacked, sorted(stacked), train, test
    )


def assert_within_tolerance(got, ref, rel_tol=REL_TOL):
    assert sorted(got) == sorted(ref)
    nodes = next(iter(ref.values())).shape[0]
    for i in range(nodes):
        scale = max(np.max(np.abs(t.data[i])) for t in ref.values())
        for name, r in ref.items():
            g = got[name].data
            assert g.shape == r.shape
            err = np.max(np.abs(g[i] - r.data[i]))
            assert err <= rel_tol * scale, (name, i, err, scale)


@given(
    kind=st.sampled_from(["logreg", "mlp", "embedding"]),
    hidden=st.lists(st.integers(min_value=1, max_value=5), max_size=2),
    batch_norm=st.booleans(),
    activation=st.sampled_from(["relu", "tanh"]),
    nodes=st.integers(min_value=1, max_value=4),
    n_train=st.integers(min_value=1, max_value=6),
    n_test=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_property_kernel_matches_stacked_tape(
    kind, hidden, batch_norm, activation, nodes, n_train, n_test, alpha,
    token_ids, seed,
):
    """LogReg (no hidden layer), MLPs and the embedding model (token ids
    or already-embedded floats), BN on/off, ReLU/tanh, 1-4 nodes, batches
    of 1-6.  Biases feeding BN have an exact-zero true meta-gradient, so
    only the node-scaled bound applies to them."""
    model = build_model(kind, tuple(hidden), batch_norm, activation)
    token_ids = token_ids and kind == "embedding"
    stacked, train, test = problem(model, nodes, n_train, n_test, seed, token_ids)
    kernel = batched_meta_gradient(model, train, test, alpha)
    assert kernel is not None
    before = fastpath.stats().fused_dispatches
    got = kernel(stacked)
    assert fastpath.stats().fused_dispatches == before + 1
    assert_within_tolerance(
        got, tape_gradient(model, stacked, train, test, alpha), PROPERTY_TOL
    )


def test_sent140_model_within_tolerance():
    """The Sent140 model (25 tokens, embed 16, hidden (32, 16), BN) on the
    e2e workload's 5-shot train / 27-sample test batches."""
    model = EmbeddingClassifier(64, 16, 25, (32, 16), 2, batch_norm=True)
    stacked, train, test = problem(model, 8, 5, 27, 0, token_ids=True)
    got = batched_meta_gradient(model, train, test, 0.05)(stacked)
    assert_within_tolerance(got, tape_gradient(model, stacked, train, test, 0.05))


def test_kernel_is_deterministic():
    model = build_model("embedding", (5, 4), True, "relu")
    stacked, train, test = problem(model, 3, 4, 5, 1, token_ids=True)
    first = batched_meta_gradient(model, train, test, 0.1)(stacked)
    second = batched_meta_gradient(model, train, test, 0.1)(stacked)
    for name in first:
        assert first[name].data.tobytes() == second[name].data.tobytes()


@pytest.mark.parametrize(
    "case", ["custom_loss", "disabled", "inner_steps", "first_order"]
)
def test_declined_cases_return_none(case):
    model = build_model("embedding", (5,), True, "relu")
    _, train, test = problem(model, 2, 3, 4, 0, token_ids=True)
    kwargs = {}
    if case == "custom_loss":
        kwargs["loss_fn"] = lambda logits, y: cross_entropy(logits, y)
    elif case == "inner_steps":
        kwargs["inner_steps"] = 2
    elif case == "first_order":
        kwargs["first_order"] = True
    if case == "disabled":
        with fastpath.disabled():
            assert batched_meta_gradient(model, train, test, 0.1) is None
    else:
        assert batched_meta_gradient(model, train, test, 0.1, **kwargs) is None
    assert fastpath.stats().fused_dispatches == 0


def test_mismatched_shapes_leave_the_error_to_the_tape():
    model = build_model("embedding", (5,), True, "relu")
    _, train, test = problem(model, 2, 3, 4, 0, token_ids=True)
    wrong_seq = (train[0][:, :, :2], train[1])
    assert batched_meta_gradient(model, wrong_seq, test, 0.1) is None
    wrong_labels = (test[0], test[1][:, :2])
    assert batched_meta_gradient(model, train, wrong_labels, 0.1) is None
