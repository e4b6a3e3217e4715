"""Wasserstein-DRO adversarial sample construction (Algorithm 2, lines 15–21).

Robust FedML approximately solves the inner supremum of the robust surrogate
loss (Lemma 2)

    x* = argmax_x  l(phi, (x, y0)) − λ · c((x, y0), (x0, y0))

by ``Ta`` steps of gradient ascent with step size ν, using the transportation
cost  c = ‖x − x0‖²  (label transport is forbidden: the paper's cost assigns
infinite mass to label changes, so y is held fixed).

λ is the Lagrangian penalty: *small* λ ⇒ large uncertainty set ⇒ stronger
perturbations ⇒ more robustness, at some clean-accuracy cost (Figure 4).
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, grad, ops
from ..nn.batched import node_loss_gradient
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from .common import embed_inputs

__all__ = ["wasserstein_ascent", "surrogate_objective"]


def surrogate_objective(
    model: Model,
    params: Params,
    x: Tensor,
    y: np.ndarray,
    anchor: np.ndarray,
    lam: float,
    loss_fn=cross_entropy,
) -> Tensor:
    """``l(phi, (x, y)) − λ‖x − x0‖²`` averaged over the batch."""
    loss = loss_fn(model.apply(params, x), y)
    diff = x - Tensor(anchor)
    transport = ops.mean(ops.sum_(diff * diff, axis=tuple(range(1, x.ndim))))
    return loss - lam * transport


def wasserstein_ascent(
    model: Model,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    lam: float,
    nu: float,
    steps: int,
    loss_fn=cross_entropy,
) -> np.ndarray:
    """Run ``steps`` ascent iterations of the robust surrogate; return x*.

    The anchor ``x0`` is the clean input; ascent starts from it and climbs
    the penalized loss surface.  Labels are returned unchanged by design.
    Each step's loss gradient comes from the first-order kernel
    (:func:`repro.nn.batched.batched_loss_gradient`) wherever it applies,
    else from the tape.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    if nu <= 0:
        raise ValueError("ascent step size nu must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    anchor = embed_inputs(model, x)
    current = anchor.copy()
    built = node_loss_gradient(model, params, anchor, y, loss_fn)
    if built is not None:
        # θ and the one-hot labels are the kernel's, fixed over the steps;
        # the transport term's gradient is 2λ(x − x0) / batch.
        kernel, stacked = built
        scale = 2.0 * lam / len(anchor)
        for _ in range(steps):
            g = kernel(
                stacked, current[None], input_gradient=True
            ).input_gradient[0]
            current = current + nu * (g - scale * (current - anchor))
        return current
    for _ in range(steps):
        x_tensor = Tensor(current, requires_grad=True)
        objective = surrogate_objective(
            model, params, x_tensor, y, anchor, lam, loss_fn=loss_fn
        )
        (g,) = grad(objective, [x_tensor], allow_unused=True)
        if g is None:
            break
        current = current + nu * g.data
    return current
