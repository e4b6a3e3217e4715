"""Fused model+loss dispatch for the cross-entropy hot path.

Every FedML local step evaluates ``cross_entropy(model.apply(params, x), y)``
— a ~15-node autodiff subgraph (linear, log-softmax, nll) rebuilt thousands
of times per run.  :func:`fused_model_loss` routes that exact composition to
the fused ops of :mod:`repro.autodiff.ops` (``linear_softmax_xent`` for
logistic regression, ``softmax_xent`` for any 2-D-logits model), which
record a single tape node carrying raw-ndarray VJPs for the first-order
fast path.

The fusion is **semantics-preserving by construction**: forward values and
gradients are bit-identical to the unfused composite (same float operation
sequence; see docs/AUTODIFF.md), and the dispatch falls back to the plain
``loss_fn(model.apply(...))`` path whenever the shapes, the loss function,
or the fast-path switch say it does not apply — so custom losses, odd
models, and ``fastpath.disabled()`` A/B runs behave exactly as before.

Call sites that need ``create_graph=True`` *through this loss* (the exact
MAML inner step) must keep using the unfused path; see
``repro.core.maml.inner_adapt``.  Exact one-step MAML skips that tape
altogether while the fast path is on: the closed-form kernel
:func:`repro.nn.batched.batched_meta_gradient` serves the serial and the
stacked path (docs/AUTODIFF.md, "Exact meta-gradient kernel").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff import Tensor, fastpath, ops
from .losses import cross_entropy, one_hot
from .modules import InputArray, LogisticRegression, Model, _as_input_tensor
from .parameters import Params

__all__ = ["fused_model_loss"]

LossFn = Callable[[Tensor, np.ndarray], Tensor]


def fused_model_loss(
    model: Model,
    params: Params,
    x: InputArray,
    y: np.ndarray,
    loss_fn: LossFn = cross_entropy,
) -> Tensor:
    """``loss_fn(model.apply(params, x), y)``, fused when profitable.

    Bit-identical to the unfused expression in values and gradients.  Only
    ``cross_entropy`` is fusable; any other ``loss_fn`` (or a disabled fast
    path) takes the reference route unchanged.
    """
    if loss_fn is not cross_entropy or not fastpath.enabled():
        return loss_fn(model.apply(params, x), y)
    if isinstance(model, LogisticRegression):
        xt = _as_input_tensor(x)
        if xt.ndim != 2 or xt.shape[1] != model.input_dim:
            # Let model.apply raise its own (identical) shape error.
            return loss_fn(model.apply(params, x), y)
        targets = Tensor(one_hot(np.asarray(y), model.num_classes))
        fastpath.note_fused_dispatch()
        return ops.linear_softmax_xent(xt, params["W"], params["b"], targets)
    logits = model.apply(params, x)
    if logits.ndim != 2:
        return loss_fn(logits, y)
    targets = Tensor(one_hot(np.asarray(y), logits.shape[1]))
    fastpath.note_fused_dispatch()
    return ops.softmax_xent(logits, targets)
