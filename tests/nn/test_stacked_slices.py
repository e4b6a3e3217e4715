"""A stacked kernel call computes each node as a one-node call would.

The vectorized executor and the fleet's training wave stack nodes of
equal shapes on a leading axis and run one kernel call per group.  They
promise the same bits as running each node alone, which is what the
serial executor does: both kernels take a one-node stack there.  So
slice ``i`` of a stacked ``batched_loss_gradient`` or
``batched_meta_gradient`` call must be ``np.array_equal`` to the call on
node ``i``'s one-node stack — the losses, every gradient and, for the
first-order kernel, the input gradient.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.nn.batched import batched_loss_gradient, batched_meta_gradient

from .test_batched_meta_gradient import build_model, problem

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
SETTINGS = settings(max_examples=150, deadline=None)


def one_node(batch, i):
    x, y = batch
    return x[i:i + 1], y[i:i + 1]


def assert_slices_equal(stacked_arrays, node_arrays, i):
    for name, array in node_arrays.items():
        assert np.array_equal(stacked_arrays[name][i], array[0]), (name, i)


@given(
    model_args=MODELS,
    nodes=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=8),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_loss_gradient_slice_equals_one_node_call(
    model_args, nodes, n, token_ids, seed
):
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, batch, _ = problem(model, nodes, n, [], seed, token_ids)
    theta = {name: t.data for name, t in stacked.items()}
    losses, grads, inputs = batched_loss_gradient(model, batch)(theta)
    for i in range(nodes):
        kernel = batched_loss_gradient(model, one_node(batch, i))
        node_losses, node_grads, node_inputs = kernel(
            {name: t[i:i + 1] for name, t in theta.items()}
        )
        assert np.array_equal(losses[i], node_losses[0])
        assert_slices_equal(grads, node_grads, i)
        assert np.array_equal(inputs[i], node_inputs[0])


@given(
    model_args=MODELS,
    nodes=st.integers(min_value=2, max_value=6),
    n_train=st.integers(min_value=1, max_value=6),
    n_tests=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=2
    ),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_meta_gradient_slice_equals_one_node_call(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed
):
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    gradient, losses = batched_meta_gradient(model, train, tests, alpha)(
        stacked
    )
    for i in range(nodes):
        kernel = batched_meta_gradient(
            model, one_node(train, i), [one_node(t, i) for t in tests], alpha
        )
        node_gradient, node_losses = kernel(
            {name: Tensor(t.data[i:i + 1]) for name, t in stacked.items()}
        )
        assert np.array_equal(losses[i], node_losses[0])
        assert_slices_equal(
            {name: g.data for name, g in gradient.items()},
            {name: g.data for name, g in node_gradient.items()},
            i,
        )
