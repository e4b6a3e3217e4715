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
``repro.core.maml.inner_adapt``.

:func:`fused_meta_gradient` removes that tape for the one case the paper's
headline runs exercise — exact one-step MAML on logistic regression with
cross-entropy — by computing the Hessian-vector term in closed form.  Its
loss value and adapted parameters are bit-identical to the reference; the
gradient is tolerance-equal (within ``1e-12`` relative), see the "Exact
meta-gradient kernel" section of docs/AUTODIFF.md.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, fastpath, ops
from .losses import cross_entropy, one_hot
from .modules import InputArray, LogisticRegression, Model, _as_input_tensor
from .parameters import Params

__all__ = ["fused_meta_gradient", "fused_model_loss"]

LossFn = Callable[[Tensor, np.ndarray], Tensor]
Batch = Tuple[InputArray, np.ndarray]


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


def _xent_step(
    x: np.ndarray, y: np.ndarray, w: np.ndarray, b: np.ndarray, classes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Loss, logits cotangent, softmax and ``1/n`` of LogReg xent at (w, b)."""
    targets = one_hot(y, classes)
    out, _, e, s, inv_n = ops._xent_forward(x @ w + b, targets)
    dl = ops._xent_dlogits_raw(np.ones(()), e, s, targets, inv_n)
    return out, dl, e / s, inv_n


def fused_meta_gradient(
    model: Model,
    params: Params,
    train: Batch,
    test_sets: Sequence[Batch],
    alpha: float,
    loss_fn: LossFn = cross_entropy,
) -> Optional[Tuple[Params, float]]:
    """Exact one-step MAML meta-gradient of ``sum_k L(phi; test_k)``.

    ``phi = theta - alpha * dL(theta; train)`` and the loss values come from
    the reference's own fused arithmetic (``ops._xent_forward`` /
    ``ops._xent_dlogits_raw``), so they are its bits.  The gradient
    ``v - alpha * H v`` takes the Hessian-vector term in closed form: with
    ``P`` the train softmax and ``v = (v_W, v_b)`` the outer gradient at
    ``phi``, ``D = X v_W + v_b``, ``J = (P*D - P * rowsum(P*D)) / n``,
    ``H v = (X^T J, colsum(J))``.  Returns ``None`` — the caller takes the
    generic tape — unless the model is a :class:`LogisticRegression`, the
    loss is ``cross_entropy``, the fast path is on and every shape matches.
    """
    if (
        loss_fn is not cross_entropy
        or not fastpath.enabled()
        or not isinstance(model, LogisticRegression)
        or set(params) != {"W", "b"}
    ):
        return None
    w, b = params["W"].data, params["b"].data
    classes = model.num_classes
    batches = [
        (_as_input_tensor(x).data, np.asarray(y))
        for x, y in (train, *test_sets)
    ]
    if w.shape != (model.input_dim, classes) or b.shape != (classes,) or any(
        x.ndim != 2 or x.shape[1] != model.input_dim or len(y) != len(x)
        for x, y in batches
    ):
        return None  # the generic path raises its usual error
    fastpath.note_fused_dispatch()
    x0, y0 = batches[0]
    _, dl, probs, inv_n = _xent_step(x0, y0, w, b, classes)
    phi_w = w - alpha * (np.transpose(x0) @ dl)
    phi_b = b - alpha * np.sum(dl, axis=(0,))
    value: Optional[np.ndarray] = None
    v_w, v_b = np.zeros_like(w), np.zeros_like(b)
    for x, y in batches[1:]:
        out, dl, _, _ = _xent_step(x, y, phi_w, phi_b, classes)
        value = out if value is None else value + out
        v_w += np.transpose(x) @ dl
        v_b += np.sum(dl, axis=(0,))
    assert value is not None  # callers always pass the test set
    pd = probs * (x0 @ v_w + v_b)
    jac = (pd - probs * np.sum(pd, axis=1, keepdims=True)) * inv_n
    gradient: Params = {
        "W": Tensor(v_w - alpha * (np.transpose(x0) @ jac)),
        "b": Tensor(v_b - alpha * np.sum(jac, axis=(0,))),
    }
    return gradient, float(value)
