"""Parameter-tree utilities.

Model parameters are plain ``dict[str, Tensor]`` objects ("params").  Keeping
parameters external to the model (functional style) is what lets MAML-style
algorithms evaluate a model at *updated* parameters ``phi = theta - alpha * g``
while retaining the graph connection back to ``theta``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from ..autodiff import Tensor

Params = Dict[str, Tensor]

__all__ = [
    "Params",
    "tree_map",
    "tree_binary_map",
    "detach",
    "clone",
    "require_grad",
    "to_vector",
    "from_vector",
    "num_parameters",
    "num_bytes",
    "l2_distance",
    "l2_norm",
    "add_scaled",
    "zeros_like_params",
]


def tree_map(fn: Callable[[Tensor], Tensor], params: Params) -> Params:
    """Apply ``fn`` to every tensor in the tree, preserving keys."""
    return {name: fn(value) for name, value in params.items()}


def tree_binary_map(
    fn: Callable[[Tensor, Tensor], Tensor], left: Params, right: Params
) -> Params:
    """Apply a binary ``fn`` over two trees with identical keys."""
    if left.keys() != right.keys():
        raise KeyError(
            f"parameter trees differ: {sorted(left)} vs {sorted(right)}"
        )
    return {name: fn(left[name], right[name]) for name in left}


def detach(params: Params) -> Params:
    """Detach every tensor from its graph (new leaves sharing data)."""
    return tree_map(lambda t: t.detach(), params)


def clone(params: Params, requires_grad: bool = False) -> Params:
    """Deep-copy parameter data into fresh leaf tensors."""
    return {
        name: Tensor(value.data.copy(), requires_grad=requires_grad)
        for name, value in params.items()
    }


def require_grad(params: Params) -> Params:
    """Fresh leaves sharing data, marked as requiring grad."""
    return {
        name: Tensor(value.data, requires_grad=True)
        for name, value in params.items()
    }


def _sorted_names(params: Params) -> List[str]:
    return sorted(params)


def to_vector(params: Params) -> np.ndarray:
    """Flatten a parameter tree to a single 1-D array (keys sorted)."""
    return np.concatenate(
        [params[name].data.reshape(-1) for name in _sorted_names(params)]
    )


def from_vector(vector: np.ndarray, template: Params) -> Params:
    """Inverse of :func:`to_vector` given a shape template."""
    vector = np.asarray(vector, dtype=np.float64)
    out: Params = {}
    offset = 0
    for name in _sorted_names(template):
        shape = template[name].shape
        count = int(np.prod(shape)) if shape else 1
        out[name] = Tensor(vector[offset : offset + count].reshape(shape))
        offset += count
    if offset != vector.size:
        raise ValueError(
            f"vector has {vector.size} entries, template needs {offset}"
        )
    return out


def num_parameters(params: Params) -> int:
    return int(sum(t.size for t in params.values()))


def num_bytes(params: Params) -> int:
    """Raw size of the tree's arrays (``nbytes``), without any wire header.

    :func:`repro.utils.serialization.payload_bytes` is the wire size — what
    a node uploads per aggregation.
    """
    return int(sum(t.data.nbytes for t in params.values()))


def l2_distance(left: Params, right: Params) -> float:
    return float(np.linalg.norm(to_vector(left) - to_vector(right)))


def l2_norm(params: Params) -> float:
    return float(np.linalg.norm(to_vector(params)))


def add_scaled(params: Params, update: Params, scale: float) -> Params:
    """Return ``params + scale * update`` as detached leaves."""
    return tree_binary_map(
        lambda p, u: Tensor(p.data + scale * u.data), params, update
    )


def zeros_like_params(params: Params) -> Params:
    return {name: Tensor(np.zeros_like(t.data)) for name, t in params.items()}
