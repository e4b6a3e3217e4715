"""NumPy-backed reverse-mode autodiff with second-order (double-backward) support.

This package is the computational substrate for the whole reproduction: the
MAML-style meta-gradient in :mod:`repro.core` differentiates *through* an
inner gradient-descent step, which requires gradients that are themselves
differentiable graph nodes (``grad(..., create_graph=True)``).

Public surface
--------------
``Tensor`` / ``tensor``
    The array type and its constructor.
``grad``
    Functional reverse-mode differentiation (torch-``autograd.grad``-like).
``ops``
    Differentiable primitive operations (also exposed as methods/operators).
``fastpath``
    The switch for the fused cross-entropy ops and the closed-form kernels
    (see docs/AUTODIFF.md).  Enabled by default; ``fastpath.disabled()``
    runs the generic tape everywhere.
"""

from . import fastpath, ops
from .check import (
    check_double_backward,
    check_gradients,
    check_second_order,
    numerical_gradient,
)
from .profile import TapeProfiler, profile_ops
from .ops import (
    abs_,
    add,
    as_tensor,
    broadcast_to,
    clip,
    concatenate,
    div,
    exp,
    getitem,
    log,
    log_softmax,
    logsumexp,
    matmul,
    max_,
    mean,
    min_,
    mul,
    neg,
    norm_sq,
    ones_like,
    power,
    relu,
    reshape,
    sigmoid,
    softmax,
    softmax_xent,
    sqrt,
    stack,
    sub,
    sum_,
    tanh,
    transpose,
    where,
    zeros_like,
)
from .tensor import GradientError, Tensor, grad, is_tensor, tensor, toposort

__all__ = [
    "Tensor",
    "tensor",
    "grad",
    "is_tensor",
    "toposort",
    "GradientError",
    "ops",
    "fastpath",
    "check_double_backward",
    "check_gradients",
    "check_second_order",
    "numerical_gradient",
    "TapeProfiler",
    "profile_ops",
    "abs_",
    "add",
    "as_tensor",
    "broadcast_to",
    "clip",
    "concatenate",
    "div",
    "exp",
    "getitem",
    "log",
    "log_softmax",
    "logsumexp",
    "matmul",
    "max_",
    "mean",
    "min_",
    "mul",
    "neg",
    "norm_sq",
    "ones_like",
    "power",
    "relu",
    "reshape",
    "sigmoid",
    "softmax",
    "softmax_xent",
    "sqrt",
    "stack",
    "sub",
    "sum_",
    "tanh",
    "transpose",
    "where",
    "zeros_like",
]
