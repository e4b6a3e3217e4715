"""Fused model+loss dispatch for the cross-entropy hot path.

Every tape loss evaluates ``cross_entropy(model.apply(params, x), y)`` —
a ~15-node autodiff subgraph (log-softmax, nll) after the model's logits.
:func:`fused_model_loss` routes that exact composition to the fused
``softmax_xent`` op of :mod:`repro.autodiff.ops` for any 2-D-logits
model, which records one node after the logits instead of the
composite's ~15.

The fusion is **semantics-preserving by construction**: forward values and
gradients are bit-identical to the unfused composite (same float operation
sequence; see docs/AUTODIFF.md), and the dispatch falls back to the plain
``loss_fn(model.apply(...))`` path whenever the shapes, the loss function,
or the fast-path switch say it does not apply — so custom losses, odd
models, and ``fastpath.disabled()`` A/B runs behave exactly as before.

Call sites that need ``create_graph=True`` *through this loss* (the exact
MAML inner step) must keep using the unfused path; see
``repro.core.maml.inner_adapt``.  One-step MAML, exact or first-order,
and Meta-SGD skip that tape altogether while the fast path is on: the
closed-form kernel :func:`repro.nn.batched.batched_meta_gradient` serves
the serial and the stacked path (docs/AUTODIFF.md, "Exact meta-gradient
kernel").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff import Tensor, fastpath, ops
from .losses import cross_entropy, one_hot
from .modules import InputArray, Model
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
    logits = model.apply(params, x)
    if logits.ndim != 2:
        return loss_fn(logits, y)
    targets = Tensor(one_hot(np.asarray(y), logits.shape[1]))
    fastpath.note_fused_dispatch()
    return ops.softmax_xent(logits, targets)
