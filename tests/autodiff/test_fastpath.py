"""Tests for the first-order backward fast path.

The contract is absolute: with the fast path on, every
``grad(..., create_graph=False)`` result must be **bit-identical** to the
reference backward — across fused ops, plan-cache reuse, buffer reuse, and
arbitrary graph shapes (hypothesis property at the bottom).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor, fastpath, grad, ops
from repro.autodiff.profile import profile_ops
from repro.nn import LogisticRegression, cross_entropy, fused_model_loss, one_hot
from repro.obs import MetricRegistry


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.clear_cache()
    fastpath.reset_stats()
    yield
    fastpath.enable()
    fastpath.clear_cache()


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


def both_backwards(make_loss, inputs):
    """(fastpath grads, reference grads) for the same loss builder."""
    fast = grad(make_loss(), inputs, allow_unused=True)
    with fastpath.disabled():
        ref = grad(make_loss(), inputs, allow_unused=True)
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
        model, params, x, y = lr_problem(seed=3)
        targets = Tensor(one_hot(y, model.num_classes))
        fused = ops.linear_softmax_xent(
            Tensor(np.asarray(x, dtype=np.float64)),
            params["W"], params["b"], targets,
        )
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

    def test_meta_gradient_exact_maml_bit_exact(self):
        from repro.core.maml import meta_gradient
        from repro.data.dataset import Dataset, NodeSplit

        rng = np.random.default_rng(11)
        model = LogisticRegression(6, 3)
        params = model.init(rng)
        split = NodeSplit(
            train=Dataset(rng.normal(size=(8, 6)), rng.integers(0, 3, size=8)),
            test=Dataset(rng.normal(size=(5, 6)), rng.integers(0, 3, size=5)),
        )
        for first_order in (False, True):
            g_fast, v_fast = meta_gradient(
                model, params, split, alpha=0.1, first_order=first_order
            )
            with fastpath.disabled():
                g_ref, v_ref = meta_gradient(
                    model, params, split, alpha=0.1, first_order=first_order
                )
            assert v_fast == v_ref
            for name in g_ref:
                assert (
                    g_fast[name].data.tobytes() == g_ref[name].data.tobytes()
                ), (first_order, name)

    def test_nonscalar_output_with_seed(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        seed = Tensor(np.linspace(0.5, 1.5, 6).reshape(2, 3))

        def run():
            return grad(ops.tanh(a), [a], grad_output=seed)

        fast = run()
        with fastpath.disabled():
            ref = run()
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
        """Returned grads are fresh copies; mutating one never corrupts a
        later backward that reuses the same cached plan and buffers."""
        x = Tensor(np.ones((3, 3)), requires_grad=True)

        def loss():
            h = ops.exp(x)
            return ops.sum_(h * h + h)

        (g1,) = grad(loss(), [x])
        baseline = g1.data.tobytes()
        g1.data[:] = -777.0  # deliberate mutation of the returned array
        (g2,) = grad(loss(), [x])
        assert g2.data.tobytes() == baseline
        assert fastpath.stats().plan_hits >= 1

    def test_different_seeds_same_structure_no_stale_memo(self):
        """Buffer reuse must not fool the fused raw-VJP memo (epoch check)."""
        model, params, x, y = lr_problem(seed=9)
        targets = Tensor(one_hot(y, model.num_classes))
        xt = Tensor(np.asarray(x, dtype=np.float64))

        def run(seed_value):
            out = ops.linear_softmax_xent(
                xt, params["W"], params["b"], targets
            )
            return grad(
                out, [params["W"]],
                grad_output=Tensor(np.asarray(seed_value)),
            )[0]

        g1 = run(1.0)
        g2 = run(2.0)
        with fastpath.disabled():
            r1 = run(1.0)
            r2 = run(2.0)
        assert g1.data.tobytes() == r1.data.tobytes()
        assert g2.data.tobytes() == r2.data.tobytes()
        np.testing.assert_allclose(g2.data, 2.0 * g1.data, rtol=1e-15)

    def test_disabled_context_restores(self):
        assert fastpath.enabled()
        with fastpath.disabled():
            assert not fastpath.enabled()
        assert fastpath.enabled()

    def test_create_graph_bypasses_fastpath(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        before = fastpath.stats().backwards
        (g,) = grad(ops.sum_(a * a * a), [a], create_graph=True)
        assert fastpath.stats().backwards == before  # reference path used
        (gg,) = grad(ops.sum_(g), [a])  # second order via fast path
        np.testing.assert_allclose(gg.data, 6.0 * a.data)


class TestPlanCache:
    def test_hit_miss_counters(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)

        def loss():
            return ops.sum_(ops.exp(x))

        grad(loss(), [x])
        assert fastpath.stats().plan_misses == 1
        assert fastpath.stats().plan_hits == 0
        grad(loss(), [x])
        grad(loss(), [x])
        stats = fastpath.stats()
        assert stats.plan_misses == 1
        assert stats.plan_hits == 2
        assert fastpath.plan_cache_size() == 1
        # Every per-edge VJP result and every returned copy is one
        # hot-path allocation; nothing else allocates.
        assert stats.hot_allocations == (
            stats.raw_vjp_calls + stats.closure_vjp_calls + stats.result_copies
        )

    def test_different_structures_get_different_plans(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        grad(ops.sum_(ops.exp(x)), [x])
        grad(ops.sum_(ops.tanh(x)), [x])  # different op name
        grad(ops.sum_(ops.exp(ops.exp(x))), [x])  # different depth
        assert fastpath.stats().plan_misses == 3

    def test_plan_reuse_does_not_confuse_op_parameters(self):
        """Same topology, different reduction axes: the cached plan must not
        bake in per-op parameters (VJPs always come from the live graph)."""
        x = Tensor(np.arange(9.0).reshape(3, 3), requires_grad=True)
        seed = Tensor(np.array([1.0, 2.0, 3.0]))
        g0 = grad(ops.sum_(x, axis=0), [x], grad_output=seed)[0]
        g1 = grad(ops.sum_(x, axis=1), [x], grad_output=seed)[0]
        np.testing.assert_array_equal(g0.data, np.tile(seed.data, (3, 1)))
        np.testing.assert_array_equal(g1.data, np.tile(seed.data[:, None], (1, 3)))

    def test_clear_cache(self):
        x = Tensor(np.ones(3), requires_grad=True)
        grad(ops.sum_(x), [x])
        assert fastpath.plan_cache_size() == 1
        fastpath.clear_cache()
        assert fastpath.plan_cache_size() == 0

    def test_to_registry_exports_counters(self):
        x = Tensor(np.ones(3), requires_grad=True)
        grad(ops.sum_(x), [x])
        grad(ops.sum_(x), [x])
        registry = MetricRegistry()
        fastpath.to_registry(registry)
        assert registry.get("autodiff_fastpath_backwards_total").value == 2
        assert registry.get("autodiff_fastpath_plan_hits_total").value == 1
        assert registry.get("autodiff_fastpath_plan_misses_total").value == 1
        assert registry.get("autodiff_fastpath_cached_plans").value == 1


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


# ----------------------------------------------------------------------
# Property: fastpath == reference, bit for bit, over random graph shapes
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
    """With ``fan_in`` the loss forces a cotangent accumulated from >= 2
    edges, and further backwards reuse the plan's warm fan-in buffers."""
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
        ref = grad(build(a, b), [a, b], allow_unused=True)
    assert_bit_equal(fast, ref)
    if not fan_in:
        return
    # Four repeated backwards over one live graph, then a fresh graph of
    # the same structure with new values: a plan hit reusing the buffers.
    loss = build(a, b)
    for _ in range(4):
        assert_bit_equal(grad(loss, [a, b], allow_unused=True), ref)
    a2, b2 = leaves()
    with fastpath.disabled():
        ref2 = grad(build(a2, b2), [a2, b2], allow_unused=True)
    hits = fastpath.stats().plan_hits
    assert_bit_equal(grad(build(a2, b2), [a2, b2], allow_unused=True), ref2)
    assert fastpath.stats().plan_hits == hits + 1
