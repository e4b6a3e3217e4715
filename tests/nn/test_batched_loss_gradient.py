"""The first-order gradient kernel against the tape, and at its call sites.

``batched_loss_gradient`` returns each node's mean cross-entropy's
parameter gradient and input gradient from one raw-array forward and
backward.  Its contract (docs/AUTODIFF.md, "First-order gradient kernel"):
per node, every parameter and input gradient entry within ``1e-12`` of
that node's largest entry on realistic shapes (the call sites below, the
bench leg).  One scale per node, as for the bias feeding batch norm:
through batch norm over one or two samples the input gradient's true
value is ``O(ε)``, a residue of cancelling terms the size of the
parameter gradients.

Over random tiny problems the kernel and the tape are each held to an
extended-precision evaluation, with two allowances that float64 needs on
both sides (measured in docs/AUTODIFF.md): the meta-gradient property's
``1e-11`` for batch norm over two samples, and, for a node whose softmax
is near saturation (mean loss ``L < 1``), a factor ``1 / L``, since its
cotangent ``p − y`` and its log-probability keep only about ``ε / L``
relative precision; ``L`` is the tape's.  Every case the kernel declines
returns ``None``, and the call site's tape raises its usual error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks import fgsm, input_gradient, pgd, wasserstein_ascent
from repro.autodiff import Tensor, fastpath, grad
from repro.core import FedAvgConfig, FedProxConfig, evaluate_adaptation
from repro.core.maml import inner_adapt
from repro.data.dataset import Dataset, NodeSplit
from repro.engine import ProxStrategy, SgdStrategy
from repro.engine.evaluation import loss_gradient
from repro.federated.node import EdgeNode
from repro.nn import Model, cross_entropy
from repro.nn.batched import KernelOutputs, batched_loss_gradient, stack_params
from repro.nn.parameters import require_grad

from .test_batched_meta_gradient import (
    PROPERTY_TOL,
    REL_TOL,
    build_model,
    extended,
    needs_extended,
    problem,
)

#: every output of the first-order kernel
ALL = {"gradient": True, "input_gradient": True}
MODELS = [
    ("logreg", (), False, "relu"),
    ("mlp", (5, 4), False, "tanh"),
    ("mlp", (6,), True, "relu"),
    ("embedding", (5, 3), True, "relu"),
]


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.reset_stats()
    yield
    fastpath.enable()


def node_params(stacked, i):
    return {name: Tensor(t.data[i]) for name, t in stacked.items()}


def tape_first_order(model, stacked, batch):
    """Per node, the parameter and input gradients and the loss from the
    serial tape with the fast path off (the ``--no-fastpath``
    arithmetic)."""
    x, y = batch
    losses, grads, inputs = [], [], []
    with fastpath.disabled():
        for i in range(len(y)):
            params = node_params(stacked, i)
            losses.append(cross_entropy(model.apply(params, x[i]), y[i]).item())
            grads.append(loss_gradient(
                model, params, Dataset(x[i], y[i]), cross_entropy
            ))
            inputs.append(input_gradient(model, params, x[i], y[i]))
    return KernelOutputs(
        {name: np.stack([g[name].data for g in grads]) for name in grads[0]},
        np.array(losses),
        np.stack(inputs),
    )


def assert_nodes_within(got, ref, rel_tol=REL_TOL):
    """Per node ``i``, every array within ``rel_tol`` (or ``rel_tol[i]``)
    of that node's largest reference entry over ``ref``'s arrays."""
    assert sorted(got) == sorted(ref)
    nodes = next(iter(ref.values())).shape[0]
    for i, tol in enumerate(np.broadcast_to(rel_tol, (nodes,))):
        scale = max(np.max(np.abs(r[i])) for r in ref.values())
        for name, r in ref.items():
            assert got[name].shape == r.shape
            err = np.max(np.abs(got[name][i] - r[i]))
            assert err <= tol * scale, (name, i, err, scale)


def assert_first_order_within(got, ref, losses):
    """The property's bound: ``PROPERTY_TOL``, times ``1 / L`` for a node
    with mean loss ``L < 1`` (``losses``)."""
    tol = PROPERTY_TOL * np.maximum(1.0, 1.0 / losses)
    assert_nodes_within(
        {**got.gradient, "x": got.input_gradient},
        {**ref.gradient, "x": ref.input_gradient},
        tol,
    )


@given(
    kind=st.sampled_from(["logreg", "mlp", "embedding"]),
    hidden=st.lists(st.integers(min_value=1, max_value=5), max_size=2),
    batch_norm=st.booleans(),
    activation=st.sampled_from(["relu", "tanh"]),
    nodes=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=6),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    # A saturated softmax (loss 1.4e-5): kernel 1.3e-12, tape 1.7e-12 of
    # the node's largest entry from the extended reference.
    kind="embedding", hidden=[4, 5], batch_norm=False, activation="tanh",
    nodes=1, n=3, token_ids=False, seed=1472475294,
)
@example(
    # 2-sample batch norm: a 1.75e-12 gap on node 1's W0 (largest entry
    # 238).
    kind="mlp", hidden=[5, 5], batch_norm=True, activation="tanh",
    nodes=4, n=2, token_ids=False, seed=204,
)
@settings(max_examples=120, deadline=None)
@needs_extended
def test_property_kernel_matches_the_tape(
    kind, hidden, batch_norm, activation, nodes, n, token_ids, seed
):
    """LogReg, MLPs with BN on and off under ReLU and tanh, and the
    embedding model fed token ids or floats; 1-4 nodes, batches of 1-6.
    The kernel and the tape are each within the bound of the kernel's
    arithmetic carried out in np.longdouble."""
    model = build_model(kind, tuple(hidden), batch_norm, activation)
    token_ids = token_ids and kind == "embedding"
    stacked, batch, _ = problem(model, nodes, n, [], seed, token_ids)
    kernel = batched_loss_gradient(model, batch)
    assert kernel is not None
    theta = {name: t.data for name, t in stacked.items()}
    before = fastpath.stats().fused_dispatches
    got = kernel(theta, **ALL)
    assert fastpath.stats().fused_dispatches == before + 1
    reference = batched_loss_gradient(model, extended(model, batch))(
        theta, **ALL
    )
    tape = tape_first_order(model, stacked, batch)
    assert_first_order_within(got, reference, tape.losses)
    assert_first_order_within(tape, reference, tape.losses)


def test_new_inputs_replace_the_features():
    """``kernel(theta, x)`` is the kernel built on ``x`` with the labels."""
    model = build_model("mlp", (5,), True, "relu")
    stacked, (x, y), _ = problem(model, 3, 5, [], 2, False)
    theta = {name: t.data for name, t in stacked.items()}
    moved = x + 0.1
    got = batched_loss_gradient(model, (x, y))(theta, moved, **ALL)
    ref = batched_loss_gradient(model, (moved, y))(theta, **ALL)
    assert got.input_gradient.tobytes() == ref.input_gradient.tobytes()
    for name, g in ref.gradient.items():
        assert got.gradient[name].tobytes() == g.tobytes()


class Unsupported(Model):
    """A model the kernel does not know: the tape's arithmetic applies."""

    output_dim = 3

    def __init__(self):
        self.inner = build_model("logreg", (), False, "relu")

    def init(self, rng):
        return self.inner.init(rng)

    def apply(self, params, x):
        return self.inner.apply(params, x)


@pytest.mark.parametrize(
    "case", ["custom_loss", "disabled", "unsupported_model"]
)
def test_declined_configurations_return_none(case):
    model = build_model("mlp", (4,), True, "relu")
    _, batch, _ = problem(model, 2, 3, [], 0, False)
    if case == "disabled":
        with fastpath.disabled():
            assert batched_loss_gradient(model, batch) is None
    elif case == "custom_loss":
        def loss(logits, y):
            return cross_entropy(logits, y)
        assert batched_loss_gradient(model, batch, loss) is None
    else:
        assert batched_loss_gradient(Unsupported(), batch) is None
    assert fastpath.stats().fused_dispatches == 0


def bad_batches():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(5, 12)), rng.integers(0, 3, size=5)
    return {
        "wrong features": (x[:, :7], y),
        "wrong label count": (x, y[:3]),
        "no rows": (x[:0], y[:0]),
        "float labels": (x, y.astype(np.float64)),
        "label out of range": (x, np.where(y == 0, 3, y)),
        "negative label": (x, np.where(y == 0, -1, y)),
    }


@pytest.mark.parametrize("case", sorted(bad_batches()))
def test_declined_batches_raise_the_tape_error(case):
    """The kernel declines; each call site raises what the tape raises."""
    x, y = bad_batches()[case]
    model = build_model("mlp", (4,), False, "relu")
    assert batched_loss_gradient(model, (x[None], y[None])) is None
    params = model.init(np.random.default_rng(1))
    calls = {
        "loss_gradient": lambda: loss_gradient(
            model, params, Dataset(x, y), cross_entropy
        ),
        "input_gradient": lambda: input_gradient(model, params, x, y),
        "inner_adapt": lambda: inner_adapt(
            model, params, Dataset(x, y), 0.1, create_graph=False
        ),
        "wasserstein_ascent": lambda: wasserstein_ascent(
            model, params, x, y, lam=1.0, nu=0.5, steps=2
        ),
    }
    for name, call in calls.items():
        with fastpath.disabled():
            with pytest.raises(Exception) as expected:
                call()
        with pytest.raises(expected.type) as raised:
            call()
        assert str(raised.value) == str(expected.value), name
    assert fastpath.stats().fused_dispatches == 0


# ----------------------------------------------------------------------
# Call sites: the kernel against their fastpath.disabled() results
# ----------------------------------------------------------------------
def node_problem(kind, hidden, batch_norm, activation, n=12, seed=4):
    model = build_model(kind, hidden, batch_norm, activation)
    token_ids = kind == "embedding"
    stacked, (x, y), _ = problem(model, 1, n, [], seed, token_ids)
    return model, node_params(stacked, 0), x[0], y[0]


def both(call):
    """``call()`` with the fast path on, its kernel dispatches, and off."""
    before = fastpath.stats().fused_dispatches
    fast = call()
    dispatches = fastpath.stats().fused_dispatches - before
    with fastpath.disabled():
        ref = call()
    return fast, dispatches, ref


def assert_array_within(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))


@pytest.mark.parametrize("spec", MODELS, ids=lambda s: f"{s[0]}{s[1]}{s[2]}")
class TestCallSites:
    def test_loss_gradient(self, spec):
        model, params, x, y = node_problem(*spec)
        fast, dispatches, ref = both(
            lambda: loss_gradient(model, params, Dataset(x, y), cross_entropy)
        )
        assert dispatches == 1
        assert list(fast) == sorted(ref)
        assert_nodes_within(
            {name: t.data[None] for name, t in fast.items()},
            {name: t.data[None] for name, t in ref.items()},
        )

    def test_input_gradient_fgsm_and_pgd(self, spec):
        model, params, x, y = node_problem(*spec)
        fast, dispatches, ref = both(lambda: input_gradient(model, params, x, y))
        assert dispatches == 1
        assert_array_within(fast, ref)
        fast, dispatches, ref = both(
            lambda: fgsm(model, params, x, y, xi=0.05)
        )
        assert dispatches == 1
        assert_array_within(fast, ref)
        fast, dispatches, ref = both(
            lambda: pgd(model, params, x, y, epsilon=0.1, step_size=0.03,
                        steps=3)
        )
        assert dispatches == 3
        assert_array_within(fast, ref)

    def test_wasserstein_ascent(self, spec):
        model, params, x, y = node_problem(*spec)
        fast, dispatches, ref = both(
            lambda: wasserstein_ascent(
                model, params, x, y, lam=1.0, nu=1.0, steps=10
            )
        )
        assert dispatches == 10
        assert_array_within(fast, ref)

    def test_inner_adapt_and_evaluate_adaptation(self, spec):
        model, params, x, y = node_problem(*spec)
        train, test = Dataset(x[:6], y[:6]), Dataset(x[6:], y[6:])
        fast, dispatches, ref = both(
            lambda: inner_adapt(model, params, train, 0.3, steps=3,
                                create_graph=False)
        )
        assert dispatches == 3
        assert not any(t.requires_grad for t in fast.values())
        assert_nodes_within(
            {name: t.data[None] for name, t in fast.items()},
            {name: t.data[None] for name, t in ref.items()},
        )
        fast, _, ref = both(
            lambda: evaluate_adaptation(
                model, params, [NodeSplit(train, test)], alpha=0.3,
                max_steps=4,
            )
        )
        assert fast.accuracies == ref.accuracies
        for got, want in zip(fast.losses, ref.losses):
            assert abs(got - want) <= REL_TOL * abs(want)


def test_inner_adapt_keeps_the_graph_for_leaves_that_require_grad():
    """The FOMAML tape: φ = θ − α·g stays connected to θ (g a constant),
    so the outer gradient reaches θ through the identity."""
    model, params, x, y = node_problem("mlp", (4,), False, "tanh")
    theta = require_grad(params)
    phi = inner_adapt(model, theta, Dataset(x, y), 0.2, create_graph=False)
    assert all(t.requires_grad for t in phi.values())
    names = sorted(theta)
    outer = cross_entropy(model.apply(phi, x), y)
    grads = grad(outer, [theta[n] for n in names] + [phi[n] for n in names])
    for g_theta, g_phi in zip(grads, grads[len(names):]):
        assert g_theta.data.tobytes() == g_phi.data.tobytes()


@pytest.mark.parametrize("strategy_cls", [SgdStrategy, ProxStrategy])
def test_stacked_sgd_block_matches_the_per_node_tape(strategy_cls):
    """Four vectorized FedAvg/FedProx steps on three nodes: the kernel (one
    dispatch per step) and each node's own steps on the tape agree node by
    node."""
    model = build_model("mlp", (6,), True, "relu")
    stacked, (x, y), _ = problem(model, 3, 8, [], 5, False)
    config = (
        FedAvgConfig(learning_rate=0.1) if strategy_cls is SgdStrategy
        else FedProxConfig(learning_rate=0.1, mu_prox=0.3)
    )

    def run(step):
        strategy = strategy_cls(model, config)
        strategy.begin_fit(node_params(stacked, 0), [])
        nodes = [
            EdgeNode(i, NodeSplit(Dataset(x[i][:2], y[i][:2]),
                                  Dataset(x[i][2:], y[i][2:])), 1.0 / 3)
            for i in range(3)
        ]
        for i, node in enumerate(nodes):
            node.params = node_params(stacked, i)
        step(strategy, nodes)
        return {
            name: t.data
            for name, t in stack_params([n.params for n in nodes]).items()
        }

    def stacked_block(strategy, nodes):
        strategy.local_block_vectorized(nodes, 4, [None] * 3)

    def own_steps(strategy, nodes):
        for node in nodes:
            for _ in range(4):
                strategy.local_step(node)

    before = fastpath.stats().fused_dispatches
    fast = run(stacked_block)
    assert fastpath.stats().fused_dispatches - before == 4
    with fastpath.disabled():
        ref = run(own_steps)
    assert_nodes_within(fast, ref)
