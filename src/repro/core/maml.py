"""Model-agnostic meta-learning primitives.

These are the building blocks shared by FedML, Robust FedML and the
centralized MAML baseline:

* :func:`inner_adapt` — the one-step (or multi-step) gradient update
  ``phi = theta - alpha * dL(theta, D_train)`` of eq. (3), keeping the graph
  connected to ``theta`` so meta-gradients flow through it; its first-order
  form takes :func:`repro.nn.batched.batched_loss_gradient` while the fast
  path is on;
* :func:`meta_loss` — ``L(phi(theta), D_test)``, the per-node objective
  ``G_i(theta)`` of Section IV;
* :func:`meta_gradient` — exact (second-order) or first-order meta-gradient
  of the per-node objective.  One-step MAML, exact or first-order, runs
  :func:`repro.nn.batched.batched_meta_gradient` on a one-node stack while
  the fast path is on; else the generic tape runs;
* :func:`node_meta_kernel` — that one-node kernel, for a caller that steps
  the same sets several times (``AsyncFedML``'s local phase);
* :class:`MAML` — a centralized trainer used as a reference baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, grad
from ..data.dataset import Dataset, NodeSplit
from ..nn.batched import (
    Arrays, Kernel, _param_shapes, batched_meta_gradient, node_loss_gradient,
)
from ..nn.fused import fused_model_loss
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params, require_grad

__all__ = [
    "LossFn", "inner_adapt", "meta_loss", "node_meta_kernel", "meta_gradient",
    "MAML",
]

#: maps model outputs and integer labels to a scalar loss tensor
LossFn = Callable[[Tensor, np.ndarray], Tensor]


def _ordered(params: Params) -> Tuple[List[str], List[Tensor]]:
    names = sorted(params)
    return names, [params[name] for name in names]


def inner_adapt(
    model: Model,
    params: Params,
    data: Dataset,
    alpha: float,
    steps: int = 1,
    loss_fn: LossFn = cross_entropy,
    create_graph: bool = True,
) -> Params:
    """Gradient-descent adaptation ``phi = theta - alpha * dL`` (eq. 3 / 6).

    With ``create_graph=True`` the returned parameters remain differentiable
    functions of ``params`` (exact MAML); with ``False`` the inner gradients
    are treated as constants (first-order approximation).  A tree of plain
    leaves (eq. 6, :func:`meta_loss`, Robust FedML's φ) then takes its
    gradients from the first-order kernel wherever it applies; a leaf that
    requires grad (the FOMAML meta-gradient where the meta kernel
    declines) keeps ``phi = theta - alpha * g`` on the tape.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    built = None
    if not create_graph and not any(t.requires_grad for t in params.values()):
        built = node_loss_gradient(model, params, data.x, data.y, loss_fn)
    if built is not None:
        kernel, stacked = built
        current = params
        for _ in range(steps):
            grads = kernel(stacked, gradient=True).gradient
            current = {
                name: Tensor(t.data - alpha * grads[name][0])
                for name, t in sorted(current.items())
            }
            stacked = {name: t.data[None] for name, t in current.items()}
        return current
    names, tensors = _ordered(params)
    # Promote plain leaves so the inner gradient exists; tensors that already
    # require grad are kept as-is to preserve the caller's graph connection.
    tensors = [
        t if t.requires_grad else Tensor(t.data, requires_grad=True)
        for t in tensors
    ]
    current = dict(zip(names, tensors))
    for _ in range(steps):
        if create_graph:
            # Exact MAML differentiates *through* this loss's backward, so
            # keep the unfused composite: its double-backward arithmetic is
            # the bit-reference.
            loss = loss_fn(model.apply(current, data.x), data.y)
        else:
            loss = fused_model_loss(model, current, data.x, data.y, loss_fn)
        grads = grad(
            loss,
            [current[n] for n in names],
            create_graph=create_graph,
            allow_unused=True,
        )
        updated: Params = {}
        for name, g in zip(names, grads):
            if g is None:
                updated[name] = current[name]
            else:
                updated[name] = current[name] - alpha * g
        current = updated
    return current


def meta_loss(
    model: Model,
    params: Params,
    split: NodeSplit,
    alpha: float,
    inner_steps: int = 1,
    loss_fn: LossFn = cross_entropy,
) -> float:
    """``G_i(theta) = L(phi_i(theta), D_i^test)`` as a plain float."""
    phi = inner_adapt(
        model, params, split.train, alpha, steps=inner_steps,
        loss_fn=loss_fn, create_graph=False,
    )
    return fused_model_loss(model, phi, split.test.x, split.test.y, loss_fn).item()


def node_meta_kernel(
    model: Model,
    params: Params,
    train: Dataset,
    tests: Sequence[Dataset],
    alpha: float,
    inner_steps: int = 1,
    loss_fn: LossFn = cross_entropy,
    first_order: bool = False,
) -> Optional[Tuple[Kernel, Arrays]]:
    """:func:`repro.nn.batched.batched_meta_gradient` on one node's
    ``train`` and outer ``tests`` sets, with ``params`` as its one-node
    stack of raw arrays; ``None`` where the kernel declines or the tree's
    names or shapes are not the model's (the tape runs those)."""
    # The kernel takes stacked batches: a one-node stack has a leading 1.
    stacks = [
        (np.asarray(d.x)[None], np.asarray(d.y)[None]) for d in (train, *tests)
    ]
    kernel = batched_meta_gradient(
        model, stacks[0], stacks[1:], alpha, loss_fn,
        inner_steps=inner_steps, first_order=first_order,
    )
    if kernel is None or (
        {name: t.shape for name, t in params.items()} != _param_shapes(model)
    ):
        return None
    return kernel, {name: t.data[None] for name, t in params.items()}


def meta_gradient(
    model: Model,
    params: Params,
    split: NodeSplit,
    alpha: float,
    inner_steps: int = 1,
    loss_fn: LossFn = cross_entropy,
    first_order: bool = False,
    extra_test_sets: Optional[Sequence[Dataset]] = None,
) -> Tuple[Params, float]:
    """Gradient of the per-node meta objective w.r.t. ``params``.

    Returns ``(gradient_tree, meta_loss_value)``.  When ``first_order`` is
    set, the Hessian-vector term ``alpha * d2L(theta) * dL(phi)`` is dropped
    (FOMAML); otherwise the gradient is exact.

    ``extra_test_sets`` adds further outer-loss terms evaluated at the same
    adapted parameters — Robust FedML uses this to include the adversarial
    dataset ``D_i^adv`` (eq. 14); empty ones are skipped.  The closed-form
    kernel runs on a one-node stack where it applies; where it declines,
    and for a tree whose names or shapes are not the model's, the generic
    tape runs.
    """
    test = split.test
    extras = [d for d in extra_test_sets or () if len(d) > 0]
    built = node_meta_kernel(
        model, params, split.train, [test, *extras], alpha,
        inner_steps=inner_steps, loss_fn=loss_fn, first_order=first_order,
    )
    if built is not None:
        kernel, stacked = built
        out = kernel(stacked, gradient=True, losses=True)
        unstacked = {name: Tensor(g[0]) for name, g in out.gradient.items()}
        return unstacked, float(out.losses[0])
    theta = require_grad(params)
    phi = inner_adapt(
        model, theta, split.train, alpha, steps=inner_steps,
        loss_fn=loss_fn, create_graph=not first_order,
    )
    # The outer derivative below is always first-order (create_graph=False),
    # so the fused composite applies even when the inner step kept an exact
    # second-order graph.
    outer = fused_model_loss(model, phi, test.x, test.y, loss_fn)
    for d in extras:
        outer = outer + fused_model_loss(model, phi, d.x, d.y, loss_fn)
    names, tensors = _ordered(theta)
    grads = grad(outer, tensors, allow_unused=True)
    return {
        name: Tensor(np.zeros_like(theta[name].data)) if g is None else g
        for name, g in zip(names, grads)
    }, outer.item()


@dataclass
class MAMLResult:
    """Outcome of centralized MAML training."""

    params: Params
    history: List[float]


class MAML:
    """Centralized MAML over a collection of task splits (reference baseline).

    Each iteration samples a mini-batch of tasks, computes the exact
    meta-gradient on each, and applies the averaged update with meta
    learning-rate ``beta``.
    """

    def __init__(
        self,
        model: Model,
        alpha: float,
        beta: float,
        inner_steps: int = 1,
        first_order: bool = False,
        loss_fn: LossFn = cross_entropy,
    ) -> None:
        self.model = model
        self.alpha = alpha
        self.beta = beta
        self.inner_steps = inner_steps
        self.first_order = first_order
        self.loss_fn = loss_fn

    def fit(
        self,
        tasks: Sequence[NodeSplit],
        iterations: int,
        rng: np.random.Generator,
        task_batch_size: int = 5,
        init_params: Optional[Params] = None,
    ) -> MAMLResult:
        params = (
            init_params
            if init_params is not None
            else self.model.init(rng)
        )
        history: List[float] = []
        task_batch_size = min(task_batch_size, len(tasks))
        for _ in range(iterations):
            chosen = rng.choice(len(tasks), size=task_batch_size, replace=False)
            accumulated: Optional[Params] = None
            batch_loss = 0.0
            for idx in chosen:
                g, value = meta_gradient(
                    self.model,
                    params,
                    tasks[int(idx)],
                    self.alpha,
                    inner_steps=self.inner_steps,
                    loss_fn=self.loss_fn,
                    first_order=self.first_order,
                )
                batch_loss += value / task_batch_size
                if accumulated is None:
                    accumulated = g
                else:
                    accumulated = {
                        name: accumulated[name] + g[name] for name in accumulated
                    }
            assert accumulated is not None
            params = {
                name: Tensor(
                    params[name].data
                    - self.beta * accumulated[name].data / task_batch_size
                )
                for name in params
            }
            history.append(batch_loss)
        return MAMLResult(params=params, history=history)
