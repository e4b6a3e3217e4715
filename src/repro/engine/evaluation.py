"""Shared evaluation and gradient helpers used by every local strategy.

Before the engine existed, each algorithm in :mod:`repro.core` carried its
own copy of the ω-weighted global objective (eq. 2 / Section IV of the
paper) and its own "forward, backward, fill missing grads with zeros" local
gradient assembly.  They live here once, so a new strategy gets both for
free and a fix lands everywhere at once.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..autodiff import Tensor, grad
from ..data.dataset import Dataset
from ..federated.node import EdgeNode
from ..nn.batched import node_loss_gradient
from ..nn.fused import fused_model_loss
from ..nn.modules import Model
from ..nn.parameters import Params, require_grad

__all__ = ["weighted_node_average", "loss_gradient", "node_training_data"]


def weighted_node_average(
    nodes: Sequence[EdgeNode], value_fn: Callable[[EdgeNode], float]
) -> float:
    """``Σ_i (ω_i / Σω) · value_fn(node_i)`` — the paper's weighted reduce.

    Weights are renormalized over the given nodes so the reduction stays a
    convex combination even when evaluating a subset of the federation.
    """
    total = 0.0
    weight_sum = sum(node.weight for node in nodes)
    for node in nodes:
        total += node.weight / weight_sum * value_fn(node)
    return total


def loss_gradient(
    model: Model,
    params: Params,
    data: Dataset,
    loss_fn: Callable[[Tensor, np.ndarray], Tensor],
) -> Params:
    """``∇_θ L(θ, data)`` with unused parameters mapped to zero gradients.

    The first-order kernel computes it where it applies; else the tape."""
    built = node_loss_gradient(model, params, data.x, data.y, loss_fn)
    if built is not None:
        kernel, stacked = built
        grads = kernel(stacked, gradient=True).gradient
        return {name: Tensor(g[0]) for name, g in grads.items()}
    theta = require_grad(params)
    loss = fused_model_loss(model, theta, data.x, data.y, loss_fn)
    names = sorted(theta)
    grads = grad(loss, [theta[n] for n in names], allow_unused=True)
    out: Params = {}
    for name, g in zip(names, grads):
        out[name] = g if g is not None else Tensor(np.zeros_like(theta[name].data))
    return out


def node_training_data(node: EdgeNode) -> Dataset:
    """The node's full local dataset ``D_i = D_i^train ∪ D_i^test``.

    FedAvg-style consensus algorithms train on all local data (the paper:
    "the entire dataset is used for training in Fedavg") rather than the
    K-shot split meta-learners use.
    """
    return node.split.train.concat(node.split.test)
