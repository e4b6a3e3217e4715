"""Fast Gradient Sign Method (Goodfellow et al., 2015).

The paper evaluates robustness by perturbing the *target node's test data*
with FGSM at strength ξ (Section VI-C): ``x_adv = x + ξ · sign(∇_x l)``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from .common import embed_inputs, input_gradient

__all__ = ["fgsm"]


def fgsm(
    model: Model,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    xi: float,
    clip_range: Optional[Tuple[float, float]] = None,
    loss_fn=cross_entropy,
) -> np.ndarray:
    """Return FGSM-perturbed inputs at strength ``xi``.

    The perturbation lives where the gradient does, in the continuous
    space :func:`embed_inputs` maps ``x`` to: token ids come back as
    perturbed embedded features, as with :func:`repro.attacks.pgd`.
    ``clip_range`` optionally clamps the result to a valid feature range
    (e.g. ``(0, 1)`` for images).
    """
    if xi < 0:
        raise ValueError("xi must be non-negative")
    features = embed_inputs(model, x)
    g = input_gradient(model, params, features, y, loss_fn=loss_fn)
    adv = features + xi * np.sign(g)
    if clip_range is not None:
        adv = np.clip(adv, clip_range[0], clip_range[1])
    return adv
