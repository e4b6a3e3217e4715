"""Shared attack utilities."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, grad
from ..nn.batched import node_loss_gradient
from ..nn.losses import cross_entropy
from ..nn.modules import EmbeddingClassifier, Model
from ..nn.parameters import Params

__all__ = ["input_gradient", "embed_inputs"]


def embed_inputs(model: Model, x: np.ndarray) -> np.ndarray:
    """Map raw inputs to the continuous space attacks operate in.

    For an :class:`EmbeddingClassifier` fed integer token ids, perturbations
    live in the embedded feature space (ids are discrete); for all other
    models the input space is already continuous.
    """
    if isinstance(model, EmbeddingClassifier) and np.asarray(x).dtype.kind in "iu":
        return model.embed(np.asarray(x)).data
    return np.asarray(x, dtype=np.float64)


def input_gradient(
    model: Model,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn=cross_entropy,
) -> np.ndarray:
    """``∇_x loss(model(params, x), y)`` as a NumPy array, in the space
    :func:`embed_inputs` maps ``x`` to; from the first-order kernel
    wherever it applies, else from the tape."""
    features = embed_inputs(model, x)
    built = node_loss_gradient(model, params, features, y, loss_fn)
    if built is not None:
        kernel, stacked = built
        return kernel(stacked, input_gradient=True).input_gradient[0]
    x_tensor = Tensor(features, requires_grad=True)
    loss = loss_fn(model.apply(params, x_tensor), y)
    (g,) = grad(loss, [x_tensor], allow_unused=True)
    if g is None:
        return np.zeros_like(features)
    return g.data
