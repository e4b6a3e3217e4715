"""The stacked meta-gradient kernel against the per-node tape.

``batched_meta_gradient`` replaces the exact one-step MAML tape for every
model ``supports_batched_loss`` accepts, on a stack of any size: a group
of the vectorized executor, or one node.  Its recorded contract
(docs/AUTODIFF.md): per node, every gradient tensor is within ``1e-12`` of
that node's largest reference gradient entry on the paper's model, and
within ``1e-11`` over random tiny problems, where batch norm over two or
three samples loses digits in the tape and the kernel alike; each node's
outer loss is within ``1e-12`` relative.  Over random problems the kernel
and the tape are each held to an extended-precision evaluation, since
their gap can be the sum of two such losses.  Every case it declines
returns ``None`` so the tape runs unchanged.

The kernel's first-order leg (FOMAML, one or two outer sets) and its rate
tree (Meta-SGD's per-parameter rates, with the log-rates' gradient) are
held to the per-node tape directly: within ``1e-12`` of each node's
largest tape entry, ``1e-11`` where batch norm runs over fewer than three
samples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fastpath, grad, ops
from repro.core import meta_gradient, meta_loss
from repro.data.dataset import Dataset, NodeSplit
from repro.nn import MLP, EmbeddingClassifier, LogisticRegression, cross_entropy
from repro.nn.batched import batched_meta_gradient, stack_params

#: the kernel's tolerance, relative to a node's largest reference entry
REL_TOL = 1e-12
#: the same bound over random tiny problems; the largest gap measured over
#: 15,000 draws was 1.1e-12, from 2-sample batch norm (docs/AUTODIFF.md)
PROPERTY_TOL = 1e-11
VOCAB = 30
#: np.longdouble carries more digits than float64 (x87 80-bit, or quad)
EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
needs_extended = pytest.mark.skipif(
    not EXTENDED, reason="np.longdouble is float64 on this platform"
)


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


def problem(model, nodes, n_train, n_tests, seed, token_ids):
    """Perturbed stacked parameters, a stacked train batch and one stacked
    test batch per entry of ``n_tests``."""
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

    return stack_params(trees), batch(n_train), [batch(n) for n in n_tests]


def kernel_call(kernel, stacked):
    """One call asking for every output: the gradient as a tree of float64
    tensors, and the ``(N,)`` losses."""
    out = kernel(
        {name: t.data for name, t in stacked.items()},
        gradient=True, losses=True,
    )
    return {name: Tensor(g) for name, g in out.gradient.items()}, out.losses


def node_split(train, test, i):
    """Node ``i``'s slice of stacked train and test batches."""
    return NodeSplit(
        Dataset(train[0][i], train[1][i]), Dataset(test[0][i], test[1][i])
    )


def tape_gradient(model, stacked, train, tests, alpha, first_order=False):
    """Each node's gradient of its summed outer losses from the per-node
    tape (the kernel switched off), stacked: one outer forward per set,
    since each set is its own batch-norm batch."""
    grads = []
    with fastpath.disabled():
        for i in range(len(train[1])):
            gradient, _ = meta_gradient(
                model,
                {name: Tensor(t.data[i]) for name, t in stacked.items()},
                node_split(train, tests[0], i),
                alpha,
                extra_test_sets=[Dataset(x[i], y[i]) for x, y in tests[1:]],
                first_order=first_order,
            )
            grads.append(gradient)
    return {
        name: Tensor(np.stack([g[name].data for g in grads]))
        for name in grads[0]
    }


def tape_losses(model, stacked, train, tests, alpha):
    """Each node's outer loss, summed over ``tests``, from the serial tape."""
    def node_loss(i, test):
        return meta_loss(
            model,
            {name: Tensor(t.data[i]) for name, t in stacked.items()},
            node_split(train, test, i),
            alpha,
        )

    return np.array([
        sum(node_loss(i, test) for test in tests)
        for i in range(len(train[1]))
    ])


def assert_losses_within_tolerance(got, ref):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= REL_TOL * np.abs(ref)), (got, ref)


def assert_within_tolerance(got, ref, rel_tol=REL_TOL):
    assert list(got) == sorted(ref)
    nodes = next(iter(ref.values())).shape[0]
    for i in range(nodes):
        scale = max(np.max(np.abs(t.data[i])) for t in ref.values())
        for name, r in ref.items():
            g = got[name].data
            assert g.shape == r.shape
            err = np.max(np.abs(g[i] - r.data[i]))
            assert err <= rel_tol * scale, (name, i, err, scale)


def extended(model, batch):
    """``batch`` with np.longdouble features: token ids looked up first,
    every float64 value widened exactly; labels unchanged."""
    x, y = batch
    if np.asarray(x).dtype.kind in "iu":
        x = model.embedding.data[x].reshape(*x.shape[:2], -1)
    return np.asarray(x, dtype=np.longdouble), y


def extended_reference(model, stacked, train, tests, alpha):
    """The exact meta-gradient in extended precision: the kernel's
    arithmetic on np.longdouble inputs, rounded to float64 once.  The
    kernel and the tape are each held to it, so an error in the kernel's
    math cannot pass: the tape would miss the reference."""
    kernel = batched_meta_gradient(
        model, extended(model, train), [extended(model, t) for t in tests],
        alpha,
    )
    return kernel_call(kernel, stacked)[0]


@given(
    kind=st.sampled_from(["logreg", "mlp", "embedding"]),
    hidden=st.lists(st.integers(min_value=1, max_value=5), max_size=2),
    batch_norm=st.booleans(),
    activation=st.sampled_from(["relu", "tanh"]),
    nodes=st.integers(min_value=1, max_value=4),
    n_train=st.integers(min_value=1, max_value=6),
    n_tests=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=3
    ),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    # 2-sample batch norm: the kernel is 3.6e-12 and the tape 7.3e-12 from
    # the extended reference, on opposite sides (a 1.09e-11 gap).
    kind="embedding", hidden=[2, 3], batch_norm=True, activation="relu",
    nodes=4, n_train=6, n_tests=[2], alpha=0.001953125, token_ids=False,
    seed=6,
)
@settings(max_examples=120, deadline=None)
@needs_extended
def test_property_kernel_matches_per_node_tape(
    kind, hidden, batch_norm, activation, nodes, n_train, n_tests, alpha,
    token_ids, seed,
):
    """LogReg (no hidden layer), MLPs and the embedding model (token ids
    or already-embedded floats), BN on/off, ReLU/tanh, 1-4 nodes, batches
    of 1-6, one to three outer sets.  The kernel and the per-node tape
    are each within the bound of the extended-precision reference.  Biases
    feeding BN have an exact-zero true meta-gradient, so only the
    node-scaled bound applies to them."""
    model = build_model(kind, tuple(hidden), batch_norm, activation)
    token_ids = token_ids and kind == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    kernel = batched_meta_gradient(model, train, tests, alpha)
    assert kernel is not None
    before = fastpath.stats().fused_dispatches
    got, losses = kernel_call(kernel, stacked)
    assert fastpath.stats().fused_dispatches == before + 1
    reference = extended_reference(model, stacked, train, tests, alpha)
    assert_within_tolerance(got, reference, PROPERTY_TOL)
    assert_within_tolerance(
        tape_gradient(model, stacked, train, tests, alpha), reference,
        PROPERTY_TOL,
    )
    assert_losses_within_tolerance(
        losses, tape_losses(model, stacked, train, tests, alpha)
    )


def test_sent140_model_within_tolerance():
    """The Sent140 model (25 tokens, embed 16, hidden (32, 16), BN) on the
    e2e workload's 5-shot train / 27-sample test batches."""
    model = EmbeddingClassifier(64, 16, 25, (32, 16), 2, batch_norm=True)
    stacked, train, tests = problem(model, 8, 5, [27], 0, token_ids=True)
    got, losses = kernel_call(
        batched_meta_gradient(model, train, tests, 0.05), stacked
    )
    assert_within_tolerance(
        got, tape_gradient(model, stacked, train, tests, 0.05)
    )
    assert_losses_within_tolerance(
        losses, tape_losses(model, stacked, train, tests, 0.05)
    )


def tape_rate_tree(model, stacked, log_rates, train, tests):
    """Per node, Meta-SGD's θ and log-rate gradients from the tape: the
    learned-rate step ``φ = θ − exp(log α) ⊙ ∇L(θ; train)`` differentiated
    through, as ``MetaSgdStrategy.local_step`` does, with the outer
    losses summed over ``tests``; each a stacked tree."""
    theta_grads, rate_grads = [], []
    with fastpath.disabled():
        for i in range(len(train[1])):
            theta = {
                name: Tensor(t.data[i], requires_grad=True)
                for name, t in stacked.items()
            }
            log_a = {
                name: Tensor(a[i], requires_grad=True)
                for name, a in log_rates.items()
            }
            names = sorted(theta)
            inner = cross_entropy(model.apply(theta, train[0][i]), train[1][i])
            inner_grads = grad(
                inner, [theta[n] for n in names], create_graph=True
            )
            phi = {
                n: theta[n] - ops.exp(log_a[n]) * g
                for n, g in zip(names, inner_grads)
            }
            outer = None
            for x, y in tests:
                loss = cross_entropy(model.apply(phi, x[i]), y[i])
                outer = loss if outer is None else outer + loss
            both = grad(outer, [theta[n] for n in names] + [log_a[n] for n in names])
            theta_grads.append(dict(zip(names, both[: len(names)])))
            rate_grads.append(dict(zip(names, both[len(names):])))

    def stack(trees):
        return {
            name: Tensor(np.stack([tree[name].data for tree in trees]))
            for name in trees[0]
        }

    return stack(theta_grads), stack(rate_grads)


def leg_tolerance(model, train, tests):
    """``REL_TOL``, or ``PROPERTY_TOL`` where batch norm runs over fewer
    than three samples and loses digits in the tape and the kernel alike."""
    hidden_bn = getattr(getattr(model, "head", model), "batch_norm", False)
    smallest = min(y.shape[1] for _, y in (train, *tests))
    return PROPERTY_TOL if hidden_bn and smallest < 3 else REL_TOL


@given(
    model_args=st.sampled_from(
        [
            ("logreg", (), False, "relu"),
            ("mlp", (5,), False, "tanh"),
            ("mlp", (4, 3), True, "relu"),
            ("embedding", (5,), True, "relu"),
            ("embedding", (4, 3), False, "relu"),
        ]
    ),
    nodes=st.integers(min_value=1, max_value=3),
    n_train=st.integers(min_value=1, max_value=6),
    n_tests=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=2
    ),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_first_order_leg_matches_the_tape(
    model_args, nodes, n_train, n_tests, alpha, token_ids, seed
):
    """FOMAML with one outer set and with two (Robust FedML's ``D^adv``):
    the gradient ``v`` and the losses against the per-node FOMAML tape."""
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    kernel = batched_meta_gradient(model, train, tests, alpha, first_order=True)
    got, losses = kernel_call(kernel, stacked)
    assert_within_tolerance(
        got,
        tape_gradient(model, stacked, train, tests, alpha, first_order=True),
        leg_tolerance(model, train, tests),
    )
    assert_losses_within_tolerance(
        losses, tape_losses(model, stacked, train, tests, alpha)
    )


@given(
    model_args=st.sampled_from(
        [
            ("logreg", (), False, "relu"),
            ("mlp", (5,), False, "relu"),
            ("mlp", (4, 3), False, "tanh"),
            ("embedding", (5,), True, "relu"),
            ("embedding", (4, 3), True, "relu"),
        ]
    ),
    nodes=st.integers(min_value=1, max_value=3),
    n_train=st.integers(min_value=1, max_value=6),
    n_tests=st.lists(
        st.integers(min_value=1, max_value=6), min_size=1, max_size=2
    ),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_rate_tree_matches_the_tape(
    model_args, nodes, n_train, n_tests, token_ids, seed
):
    """Meta-SGD on LogReg, the MLP and the batch-norm embedding model:
    per-parameter rates ``α = exp(log α)`` drawn per entry, the gradient
    ``v − H(α ⊙ v)`` and the log-rates' ``−α ⊙ ∇L(θ; train) ⊙ v``
    against the per-node tape."""
    model = build_model(*model_args)
    token_ids = token_ids and model_args[0] == "embedding"
    stacked, train, tests = problem(
        model, nodes, n_train, n_tests, seed, token_ids
    )
    rng = np.random.default_rng(seed)
    log_rates = {
        name: np.log(rng.uniform(1e-3, 0.5, size=t.shape))
        for name, t in stacked.items()
    }
    kernel = batched_meta_gradient(model, train, tests, 0.0)
    out = kernel(
        {name: t.data for name, t in stacked.items()},
        {name: np.exp(a) for name, a in log_rates.items()},
        gradient=True, rate_gradient=True,
    )
    theta_ref, rate_ref = tape_rate_tree(model, stacked, log_rates, train, tests)
    tol = leg_tolerance(model, train, tests)
    for got, ref in ((out.gradient, theta_ref), (out.rate_gradient, rate_ref)):
        assert_within_tolerance(
            {name: Tensor(g) for name, g in got.items()}, ref, tol
        )


def test_rate_gradient_needs_rates():
    model = build_model("mlp", (5,), True, "relu")
    stacked, train, tests = problem(model, 2, 3, [4], 0, token_ids=False)
    kernel = batched_meta_gradient(model, train, tests, 0.1)
    with pytest.raises(ValueError, match="rates"):
        kernel({name: t.data for name, t in stacked.items()}, rate_gradient=True)


def test_kernel_is_deterministic():
    model = build_model("embedding", (5, 4), True, "relu")
    stacked, train, tests = problem(model, 3, 4, [5, 2], 1, token_ids=True)
    first, first_losses = kernel_call(
        batched_meta_gradient(model, train, tests, 0.1), stacked
    )
    second, second_losses = kernel_call(
        batched_meta_gradient(model, train, tests, 0.1), stacked
    )
    assert first_losses.tobytes() == second_losses.tobytes()
    for name in first:
        assert first[name].data.tobytes() == second[name].data.tobytes()


@pytest.mark.parametrize("case", ["custom_loss", "disabled", "inner_steps"])
def test_declined_cases_return_none(case):
    model = build_model("embedding", (5,), True, "relu")
    _, train, tests = problem(model, 2, 3, [4], 0, token_ids=True)
    kwargs = {}
    if case == "custom_loss":
        kwargs["loss_fn"] = lambda logits, y: cross_entropy(logits, y)
    elif case == "inner_steps":
        kwargs["inner_steps"] = 2
    if case == "disabled":
        with fastpath.disabled():
            assert batched_meta_gradient(model, train, tests, 0.1) is None
    else:
        assert batched_meta_gradient(model, train, tests, 0.1, **kwargs) is None
    assert fastpath.stats().fused_dispatches == 0


def test_mismatched_shapes_leave_the_error_to_the_tape():
    model = build_model("embedding", (5,), True, "relu")
    _, train, (test,) = problem(model, 2, 3, [4], 0, token_ids=True)
    wrong_seq = (train[0][:, :, :2], train[1])
    assert batched_meta_gradient(model, wrong_seq, [test], 0.1) is None
    wrong_labels = (test[0], test[1][:, :2])
    assert batched_meta_gradient(model, train, [wrong_labels], 0.1) is None
    fewer_nodes = (test[0][:1], test[1][:1])
    assert batched_meta_gradient(model, train, [test, fewer_nodes], 0.1) is None
    assert batched_meta_gradient(model, train, [], 0.1) is None


@pytest.mark.parametrize("nodes", [1, 3])
@pytest.mark.parametrize("empty", ["train", "test", "extra"])
def test_empty_batches_leave_the_error_to_the_tape(nodes, empty):
    """A batch with no rows would give a finite, meaningless gradient;
    the tape raises on it, so the kernel declines."""
    model = build_model("mlp", (4,), True, "relu")
    stacked, train, (test,) = problem(model, nodes, 3, [4], 0, token_ids=False)
    no_rows = (test[0][:, :0], test[1][:, :0])
    if empty == "train":
        train = no_rows
        tests = [test]
    else:
        tests = [no_rows] if empty == "test" else [test, no_rows]
    assert batched_meta_gradient(model, train, tests, 0.1) is None
    if empty != "extra":
        with pytest.raises(ZeroDivisionError):
            tape_gradient(model, stacked, train, tests[:1], 0.1)

