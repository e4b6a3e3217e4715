"""The backward over ``tanh``/``sigmoid``/``power``/``clip``.

These four ops once carried raw-ndarray twins of their VJPs for a cached
first-order backward.  The twins are gone: ``grad(create_graph=False)``
runs the VJP closures with graph recording off, and must stay
bit-identical to the same closures recording the cotangent graph.
(Stacking nodes on an axis is the closed-form kernels' job,
``tests/nn/test_stacked_slices.py``; the tape's ops take one node's
operands.)
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, fastpath, grad, ops


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    fastpath.reset_stats()
    yield
    fastpath.enable()


class TestRawTwins:
    """tanh/sigmoid/power/clip lost their raw twins: closure bit-parity."""

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
        (g_ref,) = grad(ops.sum_(fn(x)), [x], create_graph=True)
        assert g_fast.data.tobytes() == g_ref.data.tobytes()
