"""Raw VJP twins of ``tanh``/``sigmoid``/``power``/``clip``.

The twins keep graphs containing these ops on the fast path, bit-identical
to the closure backward.  (Stacking nodes on an axis is the closed-form
kernels' job, ``tests/nn/test_stacked_slices.py``; the tape's ops take
one node's operands.)
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, fastpath, grad, ops


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.clear_cache()
    fastpath.reset_stats()
    yield
    fastpath.enable()
    fastpath.clear_cache()


class TestRawTwins:
    """tanh/sigmoid/power/clip now carry raw VJPs: fastpath bit-parity."""

    @pytest.mark.parametrize(
        "name,fn",
        [
            ("tanh", ops.tanh),
            ("sigmoid", ops.sigmoid),
            ("power", lambda t: ops.power(t, 3.0)),
            ("clip", lambda t: ops.clip(t, -0.5, 0.5)),
        ],
    )
    def test_bit_identical_to_closure_backward(self, name, fn):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        (g_fast,) = grad(ops.sum_(fn(x)), [x])
        with fastpath.disabled():
            (g_ref,) = grad(ops.sum_(fn(x)), [x])
        assert g_fast.data.tobytes() == g_ref.data.tobytes()

    def test_stays_on_raw_path(self):
        """A graph of the four ops must not fall back to closure VJPs."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = ops.sum_(
            ops.clip(ops.power(ops.tanh(ops.sigmoid(x)), 2.0), -0.9, 0.9)
        )
        base = fastpath.stats().closure_vjp_calls
        grad(loss, [x])
        assert fastpath.stats().closure_vjp_calls == base
