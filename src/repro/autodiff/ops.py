"""Differentiable operations for the autodiff engine.

Every operation returns a new :class:`~repro.autodiff.tensor.Tensor` whose
context records one VJP closure per differentiable parent.  VJP closures are
themselves written with the operations in this module, which is what makes
second-order differentiation (``create_graph=True``) work without any special
casing.

The tape runs one node at a time: ``matmul`` and the fused cross-entropy
composites take one node's 2-D operands.  Stacking nodes on a leading axis
is the job of the closed-form kernels in :mod:`repro.nn.batched`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, _Context

Axis = Union[None, int, Tuple[int, ...]]
Vjp = Callable[[Tensor], Tensor]

__all__ = [
    "as_tensor",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "abs_",
    "clip",
    "matmul",
    "max_",
    "min_",
    "where",
    "stack",
    "sum_",
    "mean",
    "reshape",
    "transpose",
    "broadcast_to",
    "getitem",
    "concatenate",
    "log_softmax",
    "softmax",
    "logsumexp",
    "softmax_xent",
    "norm_sq",
    "zeros_like",
    "ones_like",
]


def as_tensor(value: object) -> Tensor:
    """Coerce scalars / arrays to constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


# Profiling hook installed by repro.autodiff.profile.profile_ops(); called as
# hook(op_name, num_elements, requires_grad) for every op output.  Kept as a
# single module-level slot so the disabled path costs one None check.
_PROFILE_HOOK: Optional[Callable[[str, int, bool], None]] = None

# Graph recording switch.  ``grad(..., create_graph=False)`` flips this off
# while it runs the VJP closures, so the exact same numpy arithmetic runs but
# no contexts, closures or tape nodes are built for the cotangents.
_GRAD_ENABLED = True


def _set_grad_enabled(value: bool) -> bool:
    """Toggle graph recording; returns the previous setting."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = value
    return previous


def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    vjps: Sequence[Optional[Vjp]],
    op_name: str,
) -> Tensor:
    """Build an op output, pruning the graph when no parent requires grad."""
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    if _PROFILE_HOOK is not None:
        _PROFILE_HOOK(op_name, data.size, requires)
    if not requires:
        return Tensor(data)
    pruned = [v if p.requires_grad else None for p, v in zip(parents, vjps)]
    return Tensor(
        data, requires_grad=True, _ctx=_Context(parents, pruned, op_name)
    )


def _normalize_axis(axis: Axis, ndim: int) -> Optional[Tuple[int, ...]]:
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _unbroadcast(g: Tensor, target_shape: tuple) -> Tensor:
    """Reduce a broadcasted cotangent back to ``target_shape`` (differentiably)."""
    if g.shape == target_shape:
        return g
    # Sum away leading axes added by broadcasting.
    extra = g.ndim - len(target_shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    # Sum (keepdims) over axes where the target had size 1.
    axes = tuple(
        i for i, dim in enumerate(target_shape) if dim == 1 and g.shape[i] != 1
    )
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.shape != target_shape:
        g = reshape(g, target_shape)
    return g


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data + b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(g, b.shape),
        ),
        "add",
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data - b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(neg(g), b.shape),
        ),
        "sub",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data * b.data,
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, b), a.shape),
            lambda g: _unbroadcast(mul(g, a), b.shape),
        ),
        "mul",
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(div(g, b), a.shape),
            lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
        ),
        "div",
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), (lambda g: neg(g),), "neg")


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant (non-tensor) exponent."""
    exponent = float(exponent)
    return _make(
        a.data**exponent,
        (a,),
        (lambda g: mul(g, mul(as_tensor(exponent), power(a, exponent - 1.0))),),
        "power",
    )


def exp(a: Tensor) -> Tensor:
    out = _make(np.exp(a.data), (a,), (None,), "exp")
    if out._ctx is not None:
        out._ctx = _Context((a,), (lambda g: mul(g, out),), "exp")
    return out


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), (lambda g: div(g, a),), "log")


def sqrt(a: Tensor) -> Tensor:
    return power(a, 0.5)


def tanh(a: Tensor) -> Tensor:
    out = _make(np.tanh(a.data), (a,), (None,), "tanh")
    if out._ctx is not None:
        one = Tensor(np.array(1.0))
        out._ctx = _Context(
            (a,), (lambda g: mul(g, sub(one, mul(out, out))),), "tanh"
        )
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _make(1.0 / (1.0 + np.exp(-a.data)), (a,), (None,), "sigmoid")
    if out._ctx is not None:
        one = Tensor(np.array(1.0))
        out._ctx = _Context(
            (a,), (lambda g: mul(g, mul(out, sub(one, out))),), "sigmoid"
        )
    return out


def relu(a: Tensor) -> Tensor:
    mask = Tensor((a.data > 0).astype(np.float64))
    return _make(a.data * mask.data, (a,), (lambda g: mul(g, mask),), "relu")


def abs_(a: Tensor) -> Tensor:
    sign = Tensor(np.sign(a.data))
    return _make(np.abs(a.data), (a,), (lambda g: mul(g, sign),), "abs")


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values to ``[low, high]``; gradient is zero outside the range."""
    mask = Tensor(((a.data >= low) & (a.data <= high)).astype(np.float64))
    return _make(
        np.clip(a.data, low, high), (a,), (lambda g: mul(g, mask),), "clip"
    )


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(
            f"matmul expects 2-D operands, got {a.shape} @ {b.shape}; "
            "reshape other inputs first"
        )
    return _make(
        a.data @ b.data,
        (a, b),
        (
            lambda g: matmul(g, transpose(b)),
            lambda g: matmul(transpose(a), g),
        ),
        "matmul",
    )


# ----------------------------------------------------------------------
# Reductions and shape manipulation
# ----------------------------------------------------------------------
def sum_(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    norm_axis = _normalize_axis(axis, a.ndim)
    out_data = np.sum(a.data, axis=norm_axis, keepdims=keepdims)

    kept_shape: Optional[Tuple[int, ...]] = None
    if norm_axis is not None and not keepdims:
        kept = list(a.shape)
        for ax in norm_axis:
            kept[ax] = 1
        kept_shape = tuple(kept)

    def vjp(g: Tensor) -> Tensor:
        if kept_shape is not None:
            g = reshape(g, kept_shape)
        return broadcast_to(g, a.shape)

    return _make(out_data, (a,), (vjp,), "sum")


def mean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    norm_axis = _normalize_axis(axis, a.ndim)
    if norm_axis is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in norm_axis]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), as_tensor(1.0 / count))


def reshape(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    original = a.shape
    return _make(
        a.data.reshape(shape), (a,), (lambda g: reshape(g, original),),
        "reshape",
    )


def transpose(a: Tensor, axes: Optional[Tuple[int, ...]] = None) -> Tensor:
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))
    return _make(
        np.transpose(a.data, axes),
        (a,),
        (lambda g: transpose(g, inverse),),
        "transpose",
    )


def broadcast_to(a: Tensor, shape: Tuple[int, ...]) -> Tensor:
    return _make(
        np.broadcast_to(a.data, shape).copy(),
        (a,),
        (lambda g: _unbroadcast(g, a.shape),),
        "broadcast_to",
    )


def getitem(a: Tensor, index: object) -> Tensor:
    """Differentiable indexing (slices, ints, or integer arrays).

    The backward pass scatter-adds the cotangent into the indexed positions,
    correctly accumulating duplicates (needed for embedding lookups).
    """
    return _make(
        a.data[index], (a,), (lambda g: _scatter(g, index, a.shape),),
        "getitem",
    )


def _scatter(g: Tensor, index: object, shape: Tuple[int, ...]) -> Tensor:
    out_data = np.zeros(shape, dtype=np.float64)
    np.add.at(out_data, index, g.data)
    return _make(out_data, (g,), (lambda cot: getitem(cot, index),), "scatter")


def max_(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Maximum reduction; gradient flows to the (first) argmax entries.

    Ties split the cotangent equally among all maximal entries, matching
    NumPy's subgradient convention used by JAX.
    """
    norm_axis = _normalize_axis(axis, a.ndim)
    out_data = np.max(a.data, axis=norm_axis, keepdims=keepdims)

    expanded = np.max(a.data, axis=norm_axis, keepdims=True)
    hits = (a.data == expanded).astype(np.float64)
    hits /= np.sum(hits, axis=norm_axis, keepdims=True)
    mask = Tensor(hits)

    def vjp(g: Tensor) -> Tensor:
        if norm_axis is not None and not keepdims:
            kept = list(a.shape)
            for ax in norm_axis:
                kept[ax] = 1
            g = reshape(g, tuple(kept))
        return mul(broadcast_to(g, a.shape), mask)

    return _make(out_data, (a,), (vjp,), "max")


def min_(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    """Minimum reduction (see :func:`max_` for the tie convention)."""
    return neg(max_(neg(a), axis=axis, keepdims=keepdims))


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` for a constant condition."""
    cond = np.asarray(condition, dtype=bool)
    mask = Tensor(cond.astype(np.float64))
    inverse = Tensor((~cond).astype(np.float64))
    return _make(
        np.where(cond, a.data, b.data),
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, mask), a.shape),
            lambda g: _unbroadcast(mul(g, inverse), b.shape),
        ),
        "where",
    )


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    norm_axis = axis % out_data.ndim

    def make_vjp(i: int) -> Vjp:
        slicer = tuple(
            i if ax == norm_axis else slice(None) for ax in range(out_data.ndim)
        )
        return lambda g: getitem(g, slicer)

    return _make(
        out_data,
        tuple(tensors),
        tuple(make_vjp(i) for i in range(len(tensors))),
        "stack",
    )


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def make_vjp(i: int) -> Vjp:
        start, stop = offsets[i], offsets[i + 1]
        slicer = tuple(
            slice(start, stop) if ax == axis % out_data.ndim else slice(None)
            for ax in range(out_data.ndim)
        )
        return lambda g: getitem(g, slicer)

    return _make(
        out_data,
        tuple(tensors),
        tuple(make_vjp(i) for i in range(len(tensors))),
        "concatenate",
    )


# ----------------------------------------------------------------------
# Numerically stable composites
# ----------------------------------------------------------------------
def logsumexp(a: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    out = add(
        log(sum_(exp(sub(a, shift)), axis=axis, keepdims=True)), shift
    )
    if not keepdims:
        squeezed = tuple(d for i, d in enumerate(out.shape) if i != axis % a.ndim)
        out = reshape(out, squeezed)
    return out


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    return sub(a, logsumexp(a, axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    return exp(log_softmax(a, axis=axis))


# -- fused cross-entropy composites ------------------------------------
#
# The logistic-regression hot path (linear -> log_softmax -> nll) dominates
# every FedML meta-step.  These fused ops compute the identical float
# operation sequence the unfused composite would (forward AND backward), so
# values and gradients are bit-for-bit equal, while recording one
# softmax-xent node instead of ~15.  Its VJPs are written with ops
# primitives, so ``create_graph=True`` double backward works and the
# AD210-212 audit passes.


def _xent_forward(
    logits_data: np.ndarray, targets_data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, float]:
    """The fused forward; mirrors the composite's arithmetic exactly."""
    shift = np.max(logits_data, axis=1, keepdims=True)
    e = np.exp(logits_data - shift)
    s = np.sum(e, axis=(1,), keepdims=True)
    logp = logits_data - (np.log(s) + shift)
    inv_n = 1.0 / logits_data.shape[0]
    per = np.sum(logp * targets_data, axis=(1,))
    out = np.asarray(-(np.sum(per, axis=None) * np.asarray(inv_n)))
    return out, shift, inv_n


def _xent_outer(
    g: Tensor, n: int, inv_t: Tensor, shape: Tuple[int, ...]
) -> Tensor:
    """Cotangent of the per-example nll vector: neg -> mean -> sum chain."""
    g3 = broadcast_to(mul(neg(g), inv_t), (n,))
    return broadcast_to(reshape(g3, (n, 1)), shape)


def _xent_dlogits(
    g: Tensor, logits_t: Tensor, targets: Tensor, shift_t: Tensor, inv_t: Tensor
) -> Tensor:
    """Cotangent of the logits; step-for-step the composite's backward."""
    shape = logits_t.shape
    e_t = exp(sub(logits_t, shift_t))
    s_t = sum_(e_t, axis=1, keepdims=True)
    g5 = mul(_xent_outer(g, shape[0], inv_t, shape), targets)
    g6 = sum_(neg(g5), axis=1, keepdims=True)
    g8 = broadcast_to(div(g6, s_t), shape)
    return add(g5, mul(g8, e_t))


def _xent_logp(logits_t: Tensor, shift_t: Tensor) -> Tensor:
    """Differentiable log-probabilities with the captured constant shift."""
    e_t = exp(sub(logits_t, shift_t))
    lse = add(log(sum_(e_t, axis=1, keepdims=True)), shift_t)
    return sub(logits_t, lse)


def softmax_xent(logits: Tensor, targets: Tensor) -> Tensor:
    """Fused ``neg(mean(sum(log_softmax(logits, 1) * targets, axis=1)))``.

    ``targets`` is usually a constant one-hot tensor (the cross-entropy hot
    path), but any ``(batch, classes)`` weighting differentiates correctly.
    """
    if logits.ndim != 2:
        raise ValueError(
            f"softmax_xent expects (batch, classes) logits, got {logits.shape}"
        )
    if targets.shape != logits.shape:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits "
            f"{logits.shape}"
        )
    out, shift, inv_n = _xent_forward(logits.data, targets.data)
    shift_t = Tensor(shift)
    inv_t = Tensor(np.asarray(inv_n))
    shape = logits.shape

    def vjp_logits(g: Tensor) -> Tensor:
        return _xent_dlogits(g, logits, targets, shift_t, inv_t)

    def vjp_targets(g: Tensor) -> Tensor:
        return mul(
            _xent_outer(g, shape[0], inv_t, shape), _xent_logp(logits, shift_t)
        )

    return _make(
        out, (logits, targets), (vjp_logits, vjp_targets), "softmax_xent"
    )


def norm_sq(a: Tensor) -> Tensor:
    """Squared Euclidean norm of all elements (a scalar tensor)."""
    return sum_(mul(a, a))


def zeros_like(a: Tensor) -> Tensor:
    return Tensor(np.zeros_like(a.data))


def ones_like(a: Tensor) -> Tensor:
    return Tensor(np.ones_like(a.data))
