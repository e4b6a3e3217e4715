"""Unit tests for the Tensor graph core and the grad() API."""

import numpy as np
import pytest

from repro.autodiff import GradientError, Tensor, fastpath, grad, ops, tensor
from repro.autodiff.profile import profile_ops


class TestTensorBasics:
    def test_construction_from_list(self):
        t = tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_casts_to_float64(self):
        t = tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_wrapping_tensor_raises(self):
        with pytest.raises(TypeError):
            Tensor(tensor([1.0]))

    def test_scalar_item(self):
        assert tensor(3.5).item() == 3.5

    def test_leaf_detection(self):
        a = tensor([1.0], requires_grad=True)
        b = a + a
        assert a.is_leaf()
        assert not b.is_leaf()

    def test_detach_breaks_graph(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = (a * a).detach()
        assert b.is_leaf()
        assert not b.requires_grad
        np.testing.assert_array_equal(b.data, [1.0, 4.0])

    def test_numpy_returns_read_only_view(self):
        """Regression: ``t.numpy()`` used to hand out a writable view of the
        tensor's storage, so callers could silently corrupt values already
        captured by VJP closures."""
        a = tensor([1.0, 2.0], requires_grad=True)
        view = a.numpy()
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 99.0
        # The underlying tensor still reads/writes normally through ops.
        np.testing.assert_array_equal(a.data, [1.0, 2.0])

    def test_detach_returns_read_only_view(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        d = (a * a).detach()
        assert not d.data.flags.writeable
        with pytest.raises(ValueError):
            d.data[0] = 99.0

    def test_numpy_shares_storage_without_copy(self):
        a = tensor([1.0, 2.0])
        assert a.numpy().base is a.data

    def test_requires_grad_propagates(self):
        a = tensor([1.0], requires_grad=True)
        b = tensor([2.0])
        assert (a + b).requires_grad
        assert not (b + b).requires_grad

    def test_constant_graph_is_pruned(self):
        a = tensor([1.0])
        b = tensor([2.0])
        assert (a * b).is_leaf()

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(tensor([1.0], requires_grad=True))

    def test_shape_properties(self):
        t = tensor(np.zeros((2, 3)))
        assert t.ndim == 2
        assert t.size == 6
        assert t.T.shape == (3, 2)


class TestGradAPI:
    def test_simple_gradient(self):
        x = tensor([2.0], requires_grad=True)
        y = x * x
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [4.0])

    def test_gradient_is_detached_by_default(self):
        x = tensor([2.0], requires_grad=True)
        (g,) = grad((x * x).sum(), [x])
        assert g.is_leaf()
        assert not g.requires_grad

    def test_create_graph_keeps_gradient_differentiable(self):
        x = tensor([2.0], requires_grad=True)
        (g,) = grad((x * x * x).sum(), [x], create_graph=True)
        (gg,) = grad(g.sum(), [x])
        np.testing.assert_allclose(gg.data, [12.0])  # d2/dx2 x^3 = 6x

    def test_non_scalar_output_requires_seed(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            grad(x * x, [x])

    def test_explicit_grad_output_seed(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        seed = tensor([1.0, 0.0])
        (g,) = grad(x * x, [x], grad_output=seed)
        np.testing.assert_allclose(g.data, [2.0, 0.0])

    def test_grad_output_shape_mismatch_raises(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            grad(x * x, [x], grad_output=tensor([1.0]))

    def test_unused_input_raises_without_allow_unused(self):
        x = tensor([1.0], requires_grad=True)
        z = tensor([1.0], requires_grad=True)
        with pytest.raises(GradientError):
            grad((x * x).sum(), [z])

    def test_unused_input_none_with_allow_unused(self):
        x = tensor([1.0], requires_grad=True)
        z = tensor([1.0], requires_grad=True)
        result = grad((x * x).sum(), [x, z], allow_unused=True)
        assert result[1] is None
        np.testing.assert_allclose(result[0].data, [2.0])

    def test_gradient_accumulates_over_multiple_uses(self):
        x = tensor([3.0], requires_grad=True)
        y = x * x + x * x  # x used twice in two branches
        (g,) = grad(y.sum(), [x])
        np.testing.assert_allclose(g.data, [12.0])

    def test_diamond_graph(self):
        x = tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 5.0
        (g,) = grad((a * b).sum(), [x])
        np.testing.assert_allclose(g.data, [60.0])  # d/dx 15x^2 = 30x

    def test_gradient_wrt_intermediate_node(self):
        x = tensor([2.0], requires_grad=True)
        mid = x * x
        out = (mid * 3.0).sum()
        g_mid, g_x = grad(out, [mid, x])
        np.testing.assert_allclose(g_mid.data, [3.0])
        np.testing.assert_allclose(g_x.data, [12.0])

    def test_grad_of_output_wrt_itself(self):
        x = tensor([1.0], requires_grad=True)
        y = (x * 2.0).sum()
        (g,) = grad(y, [y])
        np.testing.assert_allclose(g.data, 1.0)

    def test_non_tensor_output_raises(self):
        with pytest.raises(TypeError):
            grad(3.0, [tensor([1.0], requires_grad=True)])


class TestReferenceBackwardRecording:
    """The reference backward (the fast path off) runs differentiable VJPs;
    with ``create_graph=False`` their graph is never read, so it records
    none, and ``create_graph=True`` still records all of it."""

    @staticmethod
    def loss():
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        return ops.sum_(ops.tanh(ops.matmul(x, w)) * ops.exp(w[0])), [x, w]

    def test_first_order_grad_records_no_tape_node(self):
        loss, leaves = self.loss()
        with fastpath.disabled(), profile_ops() as prof:
            grads = grad(loss, leaves)
        assert prof.total_ops > 0  # the VJPs ran their ops
        assert prof.tape_length == 0
        assert all(g.is_leaf() and not g.requires_grad for g in grads)
        with fastpath.disabled():
            graphed = grad(loss, leaves, create_graph=True)
        for g, want in zip(grads, graphed):
            assert g.data.tobytes() == want.data.tobytes()

    def test_create_graph_still_records_its_graph(self):
        loss, leaves = self.loss()
        with fastpath.disabled(), profile_ops() as prof:
            grads = grad(loss, leaves, create_graph=True)
        assert prof.tape_length > 0
        assert all(g.requires_grad for g in grads)
        (second,) = grad(ops.sum_(grads[1]), [leaves[0]])
        assert second.shape == leaves[0].shape

    def test_a_raising_vjp_leaves_recording_on(self):
        x = tensor([1.0, 2.0], requires_grad=True)

        def boom(g):
            raise ArithmeticError("vjp failed")

        y = ops._make(x.data * 2.0, (x,), (boom,), "boom")
        with fastpath.disabled(), pytest.raises(ArithmeticError):
            grad(ops.sum_(y), [x])
        assert ops._GRAD_ENABLED
        assert (x * x).requires_grad


class TestBackward:
    def test_backward_populates_leaf_grads(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad.data, [2.0, 4.0])

    def test_backward_accumulates_across_calls(self):
        x = tensor([1.0], requires_grad=True)
        (x * x).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad.data, [4.0])

    def test_backward_skips_non_grad_leaves(self):
        x = tensor([1.0], requires_grad=True)
        c = tensor([5.0])
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad.data, [5.0])


class TestOperatorSugar:
    def test_radd_rsub_rmul_rtruediv(self):
        x = tensor([2.0], requires_grad=True)
        np.testing.assert_allclose((1.0 + x).data, [3.0])
        np.testing.assert_allclose((1.0 - x).data, [-1.0])
        np.testing.assert_allclose((3.0 * x).data, [6.0])
        np.testing.assert_allclose((8.0 / x).data, [4.0])

    def test_negation(self):
        x = tensor([2.0], requires_grad=True)
        (g,) = grad((-x).sum(), [x])
        np.testing.assert_allclose(g.data, [-1.0])

    def test_pow_operator(self):
        x = tensor([3.0], requires_grad=True)
        (g,) = grad((x**2).sum(), [x])
        np.testing.assert_allclose(g.data, [6.0])

    def test_matmul_operator(self):
        a = tensor(np.eye(2), requires_grad=True)
        b = tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_getitem(self):
        x = tensor([1.0, 2.0, 3.0], requires_grad=True)
        (g,) = grad(x[1].sum(), [x])
        np.testing.assert_allclose(g.data, [0.0, 1.0, 0.0])

    def test_mean_method(self):
        x = tensor([1.0, 3.0], requires_grad=True)
        assert x.mean().item() == 2.0
