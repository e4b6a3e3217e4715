"""A stacked kernel call computes each node as a one-node call would, and a
narrowed call computes each output it returns as the full call does.

The vectorized executor and the fleet's training wave stack nodes of
equal shapes on a leading axis and run one kernel call per group.  They
promise the same bits as running each node alone, which is what the
serial executor does: both kernels take a one-node stack there.  So
slice ``i`` of a stacked ``batched_loss_gradient`` or
``batched_meta_gradient`` call must be ``np.array_equal`` to the call on
node ``i``'s one-node stack — every gradient, the meta kernel's losses
and the first-order kernel's input gradient, on the built batch and on
new first-layer inputs alike; the meta kernel's first-order leg and its
rate tree (with the log-rates' gradient) too.

Each call site asks only for the outputs it reads (the training step for
the gradient, evaluation for the losses, an attack for the input
gradient), so every subset of outputs asked of either kernel must return
exactly the arrays of the call that asks for all of them, for one dispatch.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fastpath
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
#: each kernel's outputs, as its keyword flags name them
META_OUTPUTS = ("gradient", "losses")
RATE_OUTPUTS = ("gradient", "losses", "rate_gradient")
LOSS_OUTPUTS = ("gradient", "input_gradient")


def asked(outputs):
    return {name: True for name in outputs}


def one_node(batch, i):
    x, y = batch
    return x[i:i + 1], y[i:i + 1]


def raw(stacked, nodes=slice(None)):
    return {name: t.data[nodes] for name, t in stacked.items()}


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
    full = batched_loss_gradient(model, batch)(
        raw(stacked), **asked(LOSS_OUTPUTS)
    )
    for i in range(nodes):
        kernel = batched_loss_gradient(model, one_node(batch, i))
        node = kernel(raw(stacked, slice(i, i + 1)), **asked(LOSS_OUTPUTS))
        assert_slices_equal(full.gradient, node.gradient, i)
        assert np.array_equal(full.input_gradient[i], node.input_gradient[0])


@given(
    model_args=MODELS,
    nodes=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=8),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_new_input_call_slice_equals_one_node_call(
    model_args, nodes, n, token_ids, seed
):
    """``kernel(theta, x, …)``, the Wasserstein ascent's form: new
    first-layer inputs against the built batch's labels."""
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, batch, _ = problem(model, nodes, n, [], seed, token_ids)
    x = np.random.default_rng(seed).normal(size=(nodes, n, 12))
    full = batched_loss_gradient(model, batch)(
        raw(stacked), x, **asked(LOSS_OUTPUTS)
    )
    for i in range(nodes):
        kernel = batched_loss_gradient(model, one_node(batch, i))
        node = kernel(
            raw(stacked, slice(i, i + 1)), x[i:i + 1], **asked(LOSS_OUTPUTS)
        )
        assert_slices_equal(full.gradient, node.gradient, i)
        assert np.array_equal(full.input_gradient[i], node.input_gradient[0])


def rates_for(stacked, seed):
    """Per-parameter inner rates, one draw per entry."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(1e-3, 0.5, size=t.shape)
        for name, t in stacked.items()
    }


META_DRAWS = dict(
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


def assert_meta_slices_equal(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed,
    first_order=False, with_rates=False,
):
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    rates = rates_for(stacked, seed) if with_rates else None
    outputs = RATE_OUTPUTS if with_rates else META_OUTPUTS
    full = batched_meta_gradient(
        model, train, tests, alpha, first_order=first_order
    )(raw(stacked), rates, **asked(outputs))
    for i in range(nodes):
        kernel = batched_meta_gradient(
            model, one_node(train, i), [one_node(t, i) for t in tests], alpha,
            first_order=first_order,
        )
        node_rates = None if rates is None else {
            name: r[i:i + 1] for name, r in rates.items()
        }
        node = kernel(
            raw(stacked, slice(i, i + 1)), node_rates, **asked(outputs)
        )
        assert np.array_equal(full.losses[i], node.losses[0])
        assert_slices_equal(full.gradient, node.gradient, i)
        if with_rates:
            assert_slices_equal(full.rate_gradient, node.rate_gradient, i)


@given(**META_DRAWS)
@SETTINGS
def test_meta_gradient_slice_equals_one_node_call(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed
):
    assert_meta_slices_equal(
        model_args, nodes, n_train, n_tests, alpha, token_ids, seed
    )


@given(**META_DRAWS)
@SETTINGS
def test_first_order_slice_equals_one_node_call(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed
):
    assert_meta_slices_equal(
        model_args, nodes, n_train, n_tests, alpha, token_ids, seed,
        first_order=True,
    )


@given(**META_DRAWS, first_order=st.booleans())
@SETTINGS
def test_rate_tree_slice_equals_one_node_call(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed, first_order
):
    assert_meta_slices_equal(
        model_args, nodes, n_train, n_tests, alpha, token_ids, seed,
        first_order=first_order, with_rates=True,
    )


def assert_narrowed_calls_match(kernel, theta, outputs, *args):
    """Every non-empty subset of ``outputs`` returns the full call's
    arrays for the outputs it names, ``None`` for the rest, and counts
    one fused dispatch.  ``args`` follow ``theta`` in every call."""
    full = kernel(theta, *args, **asked(outputs))
    for size in range(1, len(outputs) + 1):
        for subset in combinations(outputs, size):
            before = fastpath.stats().fused_dispatches
            got = kernel(theta, *args, **asked(subset))
            assert fastpath.stats().fused_dispatches == before + 1
            for name in outputs:
                value, want = getattr(got, name), getattr(full, name)
                if name not in subset:
                    assert value is None, (subset, name)
                elif name in ("gradient", "rate_gradient"):
                    assert list(value) == list(want)
                    for key, array in want.items():
                        assert np.array_equal(value[key], array), (subset, key)
                else:
                    assert np.array_equal(value, want), (subset, name)


@given(
    model_args=MODELS,
    nodes=st.integers(min_value=2, max_value=5),
    n_train=st.integers(min_value=1, max_value=6),
    n_tests=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=2
    ),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@SETTINGS
def test_narrowed_calls_return_the_full_calls_bits(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed
):
    """On the stack and on node 0's one-node stack, for both kernels and
    the meta kernel's first-order leg and rate tree."""
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    for batches, theta in (
        ((train, tests), raw(stacked)),
        (
            (one_node(train, 0), [one_node(t, 0) for t in tests]),
            raw(stacked, slice(0, 1)),
        ),
    ):
        meta = batched_meta_gradient(model, *batches, alpha)
        assert_narrowed_calls_match(meta, theta, META_OUTPUTS)
        rates = rates_for({n: Tensor(a) for n, a in theta.items()}, seed)
        assert_narrowed_calls_match(meta, theta, RATE_OUTPUTS, rates)
        first = batched_meta_gradient(model, *batches, alpha, first_order=True)
        assert_narrowed_calls_match(first, theta, META_OUTPUTS)
        first_order = batched_loss_gradient(model, batches[0])
        assert_narrowed_calls_match(first_order, theta, LOSS_OUTPUTS)


def test_a_call_asking_for_nothing_raises():
    model = build_model("mlp", (5,), True, "relu")
    stacked, train, tests = problem(model, 2, 3, [4], 0, False)
    before = fastpath.stats().fused_dispatches
    for kernel in (
        batched_meta_gradient(model, train, tests, 0.1),
        batched_loss_gradient(model, train),
    ):
        with pytest.raises(ValueError, match="at least one output"):
            kernel(raw(stacked))
    assert fastpath.stats().fused_dispatches == before
