"""Tests for the fast-path switch, the one backward and the meta kernel.

``grad`` has one backward.  With ``create_graph=False`` it runs with
graph recording off, and its results must be **bit-identical** to the
same backward recording the cotangent graph (``create_graph=True``), and
unmoved by the fast-path switch — across fused ops, repeated backwards
and arbitrary graph shapes (hypothesis property at the bottom).  The
fused cross-entropy op must be bit-identical to the composite it
replaces.

The meta-gradient kernel, which replaces the whole MAML tape
(``meta_gradient`` runs it on a one-node stack, exact or first-order),
has its own recorded contract: loss value within ``1e-12`` relative,
every gradient tensor within ``1e-12`` of the largest reference entry
(``1e-11`` over tiny batch-norm problems).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fastpath, grad, ops
from repro.autodiff.profile import profile_ops
from repro.core import maml
from repro.core.maml import meta_gradient
from repro.data.dataset import Dataset, NodeSplit
from repro.nn import (
    MLP,
    EmbeddingClassifier,
    LogisticRegression,
    cross_entropy,
    fused_model_loss,
    one_hot,
)
from repro.obs import MetricRegistry


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.reset_stats()
    yield
    fastpath.enable()


def lr_problem(seed=0, n=6, d=5, c=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = rng.integers(0, c, size=n)
    model = LogisticRegression(d, c)
    params = {
        name: Tensor(t.data, requires_grad=True)
        for name, t in model.init(rng).items()
    }
    return model, params, x, y


def meta_problem(seed, d, c, n_train, n_test, extra_sizes):
    """A LogReg meta-learning task plus extra outer-loss sets of given sizes."""
    rng = np.random.default_rng(seed)
    model = LogisticRegression(d, c)
    params = model.init(rng)

    def dataset(n):
        return Dataset(rng.normal(size=(n, d)), rng.integers(0, c, size=n))

    split = NodeSplit(train=dataset(n_train), test=dataset(n_test))
    return model, params, split, [dataset(n) for n in extra_sizes]


def assert_within_tolerance(fast, ref, rel_tol=1e-12):
    """The kernel's contract: every tensor within ``rel_tol`` of the
    largest reference entry (a bias feeding batch norm has an exact-zero
    true gradient, so a per-tensor scale would be meaningless)."""
    assert list(fast) == list(ref)
    scale = max(np.max(np.abs(r.data)) for r in ref.values())
    for name in ref:
        g, r = fast[name].data, ref[name].data
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= rel_tol * scale, name


def assert_value_within_tolerance(fast, ref):
    """The meta-loss value's contract: within ``1e-12`` relative."""
    assert abs(fast - ref) <= 1e-12 * abs(ref), (fast, ref)


def both_backwards(make_loss, inputs):
    """(grads with recording off, grads of the recording backward) for
    the same loss builder, the first with the fast path on and the
    second with it off."""
    fast = grad(make_loss(), inputs, allow_unused=True)
    with fastpath.disabled():
        ref = grad(make_loss(), inputs, create_graph=True, allow_unused=True)
    return fast, ref


def assert_bit_equal(fast, ref):
    assert len(fast) == len(ref)
    for f, r in zip(fast, ref):
        if r is None:
            assert f is None
        else:
            assert f is not None
            assert f.data.shape == r.data.shape
            assert f.data.tobytes() == r.data.tobytes()


class TestBitExactness:
    def test_simple_graph(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)

        def loss():
            return ops.sum_(ops.tanh(ops.matmul(a, b)))

        assert_bit_equal(*both_backwards(loss, [a, b]))

    def test_shared_subexpression_accumulation(self):
        """Multiple cotangent contributions exercise the buffered add path."""
        x = Tensor(np.linspace(-1.0, 2.0, 12).reshape(3, 4), requires_grad=True)

        def loss():
            h = ops.sigmoid(x)
            return ops.sum_(h * h + ops.exp(h) - h)

        assert_bit_equal(*both_backwards(loss, [x]))

    def test_cross_entropy_composite(self):
        model, params, x, y = lr_problem()

        def loss():
            return cross_entropy(model.apply(params, x), y)

        assert_bit_equal(*both_backwards(loss, [params["W"], params["b"]]))

    def test_fused_equals_composite_forward_and_grad(self):
        """The fused op after the linear layer's logits: the forward and
        the gradients of ``W`` and ``b`` are the composite's bytes."""
        model, params, x, y = lr_problem(seed=3)
        targets = Tensor(one_hot(y, model.num_classes))
        fused = ops.softmax_xent(model.apply(params, x), targets)
        composite = cross_entropy(model.apply(params, x), y)
        assert fused.data.tobytes() == composite.data.tobytes()
        gf = grad(fused, [params["W"], params["b"]])
        with fastpath.disabled():
            gc = grad(
                cross_entropy(model.apply(params, x), y),
                [params["W"], params["b"]],
            )
        assert_bit_equal(gf, gc)

    def test_bifused_softmax_xent_matches_composite(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        y = rng.integers(0, 4, size=5)
        targets = Tensor(one_hot(y, 4))

        fast = grad(ops.softmax_xent(logits, targets), [logits])
        with fastpath.disabled():
            ref = grad(cross_entropy(logits, y), [logits])
        assert_bit_equal(fast, ref)

    def test_fused_model_loss_dispatch_is_bit_exact(self):
        model, params, x, y = lr_problem(seed=5)
        fast = grad(
            fused_model_loss(model, params, x, y),
            [params["W"], params["b"]],
        )
        with fastpath.disabled():
            ref = grad(
                cross_entropy(model.apply(params, x), y),
                [params["W"], params["b"]],
            )
        assert_bit_equal(fast, ref)
        assert fastpath.stats().fused_dispatches == 1

    def test_nonscalar_output_with_seed(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        seed = Tensor(np.linspace(0.5, 1.5, 6).reshape(2, 3))

        def run():
            return grad(ops.tanh(a), [a], grad_output=seed)

        fast = run()
        with fastpath.disabled():
            ref = grad(ops.tanh(a), [a], grad_output=seed, create_graph=True)
        assert_bit_equal(fast, ref)

    def test_grad_of_output_wrt_itself(self):
        a = Tensor(np.ones(3), requires_grad=True)
        out = ops.mul(a, a)
        seed = Tensor(np.full(3, 2.0))
        (g,) = grad(out, [out], grad_output=seed)
        assert g.data.tobytes() == seed.data.tobytes()


class TestSemantics:
    def test_unused_input_raises_without_allow_unused(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(Exception, match="allow_unused"):
            grad(ops.sum_(a), [b])

    def test_unused_input_none_with_allow_unused(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        g = grad(ops.sum_(a), [a, b], allow_unused=True)
        assert g[0] is not None and g[1] is None

    def test_results_do_not_alias_plan_buffers(self):
        """A returned gradient is read-only, so no caller can write into
        state a later backward over the same structure reads."""
        x = Tensor(np.ones((3, 3)), requires_grad=True)

        def loss():
            h = ops.exp(x)
            return ops.sum_(h * h + h)

        (g1,) = grad(loss(), [x])
        baseline = g1.data.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            g1.data[:] = -777.0
        (g2,) = grad(loss(), [x])
        assert g2.data.tobytes() == baseline

    def test_different_seeds_same_structure_no_stale_memo(self):
        """Backwards over same-structured fused graphs with different
        seeds carry nothing between them: each equals the recording
        backward's bytes, and seed 2 gives twice seed 1."""
        model, params, x, y = lr_problem(seed=9)
        targets = Tensor(one_hot(y, model.num_classes))

        def run(seed_value, create_graph=False):
            out = ops.softmax_xent(model.apply(params, x), targets)
            return grad(
                out, [params["W"]],
                grad_output=Tensor(np.asarray(seed_value)),
                create_graph=create_graph,
            )[0]

        g1 = run(1.0)
        g2 = run(2.0)
        r1 = run(1.0, create_graph=True)
        r2 = run(2.0, create_graph=True)
        assert g1.data.tobytes() == r1.data.tobytes()
        assert g2.data.tobytes() == r2.data.tobytes()
        np.testing.assert_allclose(g2.data, 2.0 * g1.data, rtol=1e-15)

    def test_disabled_context_restores(self):
        assert fastpath.enabled()
        with fastpath.disabled():
            assert not fastpath.enabled()
        assert fastpath.enabled()

    def test_create_graph_bypasses_fastpath(self):
        """With the fast path on, ``create_graph=True`` still records the
        cotangent graph, so the gradient differentiates again."""
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (g,) = grad(ops.sum_(a * a * a), [a], create_graph=True)
        assert g.requires_grad and not g.is_leaf()
        (gg,) = grad(ops.sum_(g), [a])
        np.testing.assert_allclose(gg.data, 6.0 * a.data)


class TestPlanCache:
    """The backward kept no plan cache across graphs; these guard what
    the cache once had to: per-op parameters come from the live graph,
    and the switch's counters export."""

    def test_plan_reuse_does_not_confuse_op_parameters(self):
        """Same topology, different reduction axes: each backward runs the
        VJPs recorded on its own graph."""
        x = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
        seed = Tensor(np.array([1.0, 2.0, 3.0]))
        g0 = grad(ops.sum_(x, axis=0), [x], grad_output=seed)[0]
        g1 = grad(ops.sum_(x, axis=1), [x], grad_output=seed)[0]
        np.testing.assert_array_equal(g0.data, np.tile(seed.data, (3, 1)))
        np.testing.assert_array_equal(g1.data, np.tile(seed.data[:, None], (1, 3)))

    def test_to_registry_exports_counters(self):
        model, params, x, y = lr_problem(seed=5)
        fused_model_loss(model, params, x, y)
        fused_model_loss(model, params, x, y)
        registry = MetricRegistry()
        fastpath.to_registry(registry)
        assert registry.get(
            "autodiff_fastpath_fused_dispatches_total"
        ).value == 2


class TestSingleWalkBackward:
    def test_backward_walks_graph_once(self):
        """Regression: Tensor.backward() used to toposort twice (once for
        leaf discovery, once inside grad)."""
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with profile_ops() as prof:
            loss = ops.sum_(ops.matmul(x, w))
            loss.backward()
        assert prof.graph_walks == 1
        assert x.grad is not None and w.grad is not None

    def test_grad_walks_graph_once_on_both_paths(self):
        x = Tensor(np.ones(5), requires_grad=True)
        with profile_ops() as prof:
            grad(ops.sum_(ops.exp(x)), [x])
        assert prof.graph_walks == 1
        with fastpath.disabled():
            with profile_ops() as prof:
                grad(ops.sum_(ops.exp(x)), [x])
        assert prof.graph_walks == 1


class TestExactMetaGradientKernel:
    """``meta_gradient`` runs ``batched_meta_gradient`` on a one-node
    stack: loss value within ``1e-12`` relative and gradient within
    ``1e-12`` of the reference tape, generic tape otherwise."""

    def test_meta_gradient_exact_maml_within_tolerance(self):
        model, params, split, _ = meta_problem(11, 6, 3, 8, 5, ())
        with profile_ops() as prof:
            g_fast, v_fast = meta_gradient(model, params, split, alpha=0.1)
        assert fastpath.stats().fused_dispatches == 1
        assert prof.graph_walks == 0  # no tape backward
        with fastpath.disabled():
            g_ref, v_ref = meta_gradient(model, params, split, alpha=0.1)
        assert_value_within_tolerance(v_fast, v_ref)
        assert_within_tolerance(g_fast, g_ref)

    def test_meta_gradient_first_order_within_tolerance(self):
        """FOMAML takes the kernel's first-order leg: ``v`` alone."""
        model, params, split, _ = meta_problem(11, 6, 3, 8, 5, ())
        with profile_ops() as prof:
            g_fast, v_fast = meta_gradient(
                model, params, split, alpha=0.1, first_order=True
            )
        assert fastpath.stats().fused_dispatches == 1
        assert prof.graph_walks == 0
        with fastpath.disabled():
            g_ref, v_ref = meta_gradient(
                model, params, split, alpha=0.1, first_order=True
            )
        assert_value_within_tolerance(v_fast, v_ref)
        assert_within_tolerance(g_fast, g_ref)

    def test_meta_loss_value_within_tolerance(self):
        """The value is the outer loss at the adapted parameters."""
        model, params, split, _ = meta_problem(4, 5, 4, 7, 6, ())
        _, value = meta_gradient(model, params, split, alpha=0.3)
        with fastpath.disabled():
            phi = maml.inner_adapt(model, params, split.train, alpha=0.3)
            ref = cross_entropy(model.apply(phi, split.test.x), split.test.y)
        assert_value_within_tolerance(value, ref.item())

    @staticmethod
    def _spy(monkeypatch):
        """Record each kernel build's result and its fused-dispatch delta."""
        calls = []
        real = maml.batched_meta_gradient

        def spy(*args, **kwargs):
            before = fastpath.stats().fused_dispatches
            result = real(*args, **kwargs)
            calls.append((result, fastpath.stats().fused_dispatches - before))
            return result

        monkeypatch.setattr(maml, "batched_meta_gradient", spy)
        return calls

    @staticmethod
    def _assert_tape_bytes(model, params, split, g_fast, v_fast, **kwargs):
        with fastpath.disabled():
            g_ref, v_ref = meta_gradient(model, params, split, **kwargs)
        assert v_fast == v_ref
        assert list(g_fast) == list(g_ref)
        for name in g_ref:
            assert g_fast[name].data.tobytes() == g_ref[name].data.tobytes()

    @pytest.mark.parametrize("case", ["inner_steps", "custom_loss", "disabled"])
    def test_fallbacks_take_the_generic_path(self, case, monkeypatch):
        model, params, split, _ = meta_problem(2, 5, 3, 6, 4, ())
        kwargs = {"alpha": 0.1}
        if case == "inner_steps":
            kwargs["inner_steps"] = 2
        elif case == "custom_loss":
            kwargs["loss_fn"] = lambda logits, y: cross_entropy(logits, y)
        calls = self._spy(monkeypatch)
        if case == "disabled":
            with fastpath.disabled():
                g_fast, v_fast = meta_gradient(model, params, split, **kwargs)
        else:
            g_fast, v_fast = meta_gradient(model, params, split, **kwargs)
        assert calls and all(
            result is None and delta == 0 for result, delta in calls
        )
        self._assert_tape_bytes(model, params, split, g_fast, v_fast, **kwargs)

    def test_foreign_parameter_tree_takes_the_tape(self, monkeypatch):
        """A tree with a name beyond the model's: the kernel is built, the
        tape runs instead, and its zero gradient for that name stays."""
        model, params, split, _ = meta_problem(5, 5, 3, 6, 4, ())
        params = {**params, "unused": Tensor(np.ones(2))}
        calls = self._spy(monkeypatch)
        with profile_ops() as prof:
            g_fast, v_fast = meta_gradient(model, params, split, alpha=0.1)
        assert [result is not None for result, _ in calls] == [True]
        assert prof.graph_walks > 0  # the tape's backward ran
        assert not g_fast["unused"].data.any()
        self._assert_tape_bytes(
            model, params, split, g_fast, v_fast, alpha=0.1
        )

    def test_wrong_feature_dim_raises_model_error(self, monkeypatch):
        model, params, _, _ = meta_problem(3, 5, 3, 6, 4, ())
        rng = np.random.default_rng(3)
        split = NodeSplit(
            train=Dataset(rng.normal(size=(6, 4)), rng.integers(0, 3, size=6)),
            test=Dataset(rng.normal(size=(4, 4)), rng.integers(0, 3, size=4)),
        )
        calls = self._spy(monkeypatch)
        with pytest.raises(ValueError, match="expected input of shape"):
            meta_gradient(model, params, split, alpha=0.1)
        assert calls == [(None, 0)]

    @pytest.mark.parametrize(
        "batch_norm, error", [(False, ValueError), (True, ZeroDivisionError)]
    )
    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_batch_raises_the_tape_error(self, batch_norm, error, empty):
        """The kernel declines a batch with no rows, so the tape raises its
        usual error instead of a NaN or near-zero result."""
        model = MLP(5, (4,), 3, batch_norm=batch_norm)
        params = model.init(np.random.default_rng(0))
        _, _, split, _ = meta_problem(6, 5, 3, 6, 4, ())
        no_rows = Dataset(np.zeros((0, 5)), np.zeros(0, dtype=int))
        if empty == "train":
            split = NodeSplit(train=no_rows, test=split.test)
        else:
            split = NodeSplit(train=split.train, test=no_rows)
        with pytest.raises(error):
            meta_gradient(model, params, split, alpha=0.1)
        with fastpath.disabled(), pytest.raises(error):
            meta_gradient(model, params, split, alpha=0.1)


def kernel_problem(kind, hidden, batch_norm, n_train, n_test, extra_sizes,
                   token_ids, seed):
    """A one-node problem on LogReg, an MLP or the embedding model, with
    extra outer-loss sets of the given sizes (size 0: empty)."""
    rng = np.random.default_rng(seed)
    if kind == "logreg":
        model = LogisticRegression(6, 3)
    elif kind == "mlp":
        model = MLP(6, hidden, 3, batch_norm=batch_norm)
    else:
        model = EmbeddingClassifier(20, 2, 3, hidden, 2, batch_norm=batch_norm)
    params = {
        name: Tensor(t.data + 0.3 * rng.normal(size=t.shape))
        for name, t in model.init(rng).items()
    }

    def dataset(n):
        if token_ids and kind == "embedding":
            x = rng.integers(0, 20, size=(n, 3))
        else:
            x = rng.normal(size=(n, 6))
        return Dataset(x, rng.integers(0, model.output_dim, size=n))

    split = NodeSplit(train=dataset(n_train), test=dataset(n_test))
    return model, params, split, [dataset(n) for n in extra_sizes]


@given(
    kind=st.sampled_from(["logreg", "mlp", "embedding"]),
    hidden=st.lists(st.integers(min_value=1, max_value=5), max_size=2),
    batch_norm=st.booleans(),
    n_train=st.integers(min_value=1, max_value=8),
    n_test=st.integers(min_value=1, max_value=8),
    alpha=st.floats(min_value=1e-3, max_value=0.5),
    extra_sizes=st.lists(
        st.integers(min_value=0, max_value=6), min_size=0, max_size=2
    ),
    token_ids=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_property_exact_meta_gradient_kernel_within_tolerance(
    kind, hidden, batch_norm, n_train, n_test, alpha, extra_sizes, token_ids,
    seed,
):
    """LogReg, MLPs with BN on and off and the embedding model (token ids
    or embedded floats), 0-2 extra outer sets (possibly empty, which both
    paths skip): one kernel dispatch, value within 1e-12 relative,
    gradient within 1e-12 of the largest reference entry — 1e-11 with
    batch norm, where two-sample statistics lose digits on both paths."""
    model, params, split, extras = kernel_problem(
        kind, tuple(hidden), batch_norm, n_train, n_test, extra_sizes,
        token_ids, seed,
    )
    fastpath.enable()
    before = fastpath.stats().fused_dispatches
    g_fast, v_fast = meta_gradient(
        model, params, split, alpha, extra_test_sets=extras
    )
    assert fastpath.stats().fused_dispatches == before + 1
    with fastpath.disabled():
        g_ref, v_ref = meta_gradient(
            model, params, split, alpha, extra_test_sets=extras
        )
    assert_value_within_tolerance(v_fast, v_ref)
    uses_bn = batch_norm and kind != "logreg" and len(hidden) > 0
    assert_within_tolerance(g_fast, g_ref, 1e-11 if uses_bn else 1e-12)


# ----------------------------------------------------------------------
# Property: recording off == recording on, bit for bit, over random graphs
# ----------------------------------------------------------------------
_UNARY = [ops.exp, ops.tanh, ops.sigmoid, ops.relu, ops.neg, ops.abs_]
_BINARY = [ops.add, ops.sub, ops.mul]


@given(
    shape=st.tuples(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    ),
    op_picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(_UNARY) + len(_BINARY) - 1),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=8,
    ),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    fan_in=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_fastpath_bit_identical(shape, op_picks, data_seed, fan_in):
    """The backward with the fast path on and recording off equals the
    recording backward with it off.  With ``fan_in`` the loss forces a
    cotangent accumulated from >= 2 edges, and repeated backwards over one
    graph, then over a fresh graph of the same structure, give the same
    bytes again."""
    rng = np.random.default_rng(data_seed)

    def leaves():
        return (
            Tensor(rng.normal(size=shape), requires_grad=True),
            Tensor(rng.normal(size=shape), requires_grad=True),
        )

    def build(a, b):
        frontier = [a, b]
        for op_index, operand in op_picks:
            if op_index < len(_UNARY):
                node = _UNARY[op_index](frontier[operand % len(frontier)])
            else:
                binary = _BINARY[op_index - len(_UNARY)]
                node = binary(
                    frontier[operand % len(frontier)],
                    frontier[(operand + 1) % len(frontier)],
                )
            frontier.append(node)
        if fan_in:
            # Summing a product of the last two frontier nodes forces a
            # shared consumer.
            return ops.sum_(
                ops.add(frontier[-1], ops.mul(frontier[-1], frontier[-2]))
            )
        return ops.sum_(frontier[-1])

    a, b = leaves()
    fastpath.enable()
    fast = grad(build(a, b), [a, b], allow_unused=True)
    with fastpath.disabled():
        ref = grad(build(a, b), [a, b], create_graph=True, allow_unused=True)
    assert_bit_equal(fast, ref)
    if not fan_in:
        return
    # Four repeated backwards over one live graph, then a fresh graph of
    # the same structure with new values.
    loss = build(a, b)
    for _ in range(4):
        assert_bit_equal(grad(loss, [a, b], allow_unused=True), ref)
    a2, b2 = leaves()
    with fastpath.disabled():
        ref2 = grad(
            build(a2, b2), [a2, b2], create_graph=True, allow_unused=True
        )
    assert_bit_equal(grad(build(a2, b2), [a2, b2], allow_unused=True), ref2)
