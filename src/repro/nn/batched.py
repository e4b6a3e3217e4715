"""Closed-form kernels over a leading node axis.

Between aggregations nodes are independent, so a block of T0 local steps
over N same-shaped nodes is N disjoint computations.  This module stacks
their parameter trees and batches into ``(N, ...)`` arrays and computes
every node's step at once, on raw arrays, with no autodiff tape; a
serial node is a stack of one.  Slice ``i`` of a stacked call equals
node ``i``'s one-node call bit for bit (``tests/nn/test_stacked_slices.py``),
so grouping nodes changes no result.

``stack_params`` / ``unstack_params`` convert between a list of per-node
parameter trees and one stacked tree; ``supports_batched_loss`` and
``batch_key`` are the capability probes strategies group nodes by.

``batched_meta_gradient`` removes the MAML tape (an inner
``create_graph=True`` graph walked again by the outer backward) for every
model ``supports_batched_loss`` accepts.  Its per-block kernel maps
stacked θ to the exact one-step meta-gradient ``v − α·H v`` and the outer
losses, with ``H v`` taken forward-over-reverse (Pearlmutter's R-op)
through the dense layers, batch norm, the activation and softmax-xent on
raw arrays.  Its first-order leg (FOMAML) is ``v`` alone, and a call that
passes per-parameter rates (Meta-SGD) takes ``v − H(α ⊙ v)`` and the
log-rates' gradient.  The result is tolerance-equal to the tape, per node
relative to that node's largest reference gradient entry; the bounds and
their measurements are in the "Exact meta-gradient kernel" section of
docs/AUTODIFF.md.

``batched_loss_gradient`` is the first-order half of the same arithmetic:
one forward and one backward give the mean cross-entropy's parameter
gradient and its input gradient.  It serves every first-order step that
would otherwise build a tape — local SGD, the inner step of eq. 3/6, the
FGSM/PGD input gradient and the Wasserstein ascent ("First-order gradient
kernel" in docs/AUTODIFF.md).

A kernel call names the outputs it reads, by keyword, and skips the
arithmetic of the rest; each output is the full call's, bit for bit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, fastpath
from .losses import cross_entropy
from .modules import EmbeddingClassifier, LogisticRegression, MLP, Model
from .parameters import Params

__all__ = [
    "stack_params",
    "unstack_params",
    "batched_one_hot",
    "batch_key",
    "batched_meta_gradient",
    "batched_loss_gradient",
    "node_loss_gradient",
    "supports_batched_loss",
    "KernelOutputs",
]

LossFn = Callable[[Tensor, np.ndarray], Tensor]
Arrays = Dict[str, np.ndarray]


class KernelOutputs(NamedTuple):
    """One kernel call's outputs; ``None`` for each it was not asked for."""

    gradient: Optional[Arrays] = None  # stacked, by sorted name
    losses: Optional[np.ndarray] = None  # (N,); meta kernel only
    input_gradient: Optional[np.ndarray] = None  # first-order kernel only
    rate_gradient: Optional[Arrays] = None  # meta kernel, log-rates only


#: stacked θ arrays (meta: and rates; first-order: and new inputs) -> the
#: outputs asked for
Kernel = Callable[..., KernelOutputs]


def _asked(*flags: bool) -> None:
    """Count one fused dispatch for a call that asks for an output."""
    if not any(flags):
        raise ValueError("a kernel call must ask for at least one output")
    fastpath.note_fused_dispatch()


def stack_params(params_list: Sequence[Params]) -> Params:
    """Stack per-node parameter trees into one ``(N, ...)`` tree.

    Key order is sorted for determinism; every tree must share the same
    names and per-name shapes (``np.array`` raises ``ValueError`` on
    ragged shapes from NumPy 1.24, the project's floor, and builds
    ``np.stack``'s array at a fraction of its per-call cost, which a
    stacked block pays every block).
    """
    if not params_list:
        raise ValueError("stack_params needs at least one parameter tree")
    names = sorted(params_list[0])
    for tree in params_list[1:]:
        if sorted(tree) != names:
            raise ValueError(
                f"parameter trees disagree on names: {sorted(tree)} vs {names}"
            )
    return {
        name: Tensor(np.array([tree[name].data for tree in params_list]))
        for name in names
    }


def unstack_params(stacked: Params, num_nodes: int) -> List[Params]:
    """Split a stacked tree back into ``num_nodes`` independent trees.

    Slices are copied so each node owns a contiguous buffer with no view
    aliasing into the stacked array.
    """
    return [
        {name: Tensor(t.data[i].copy()) for name, t in stacked.items()}
        for i in range(num_nodes)
    ]


def batched_one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode ``(nodes, batch)`` integer labels to ``(N, B, C)``."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"expected (nodes, batch) labels, got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise TypeError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for one-hot encoding")
    n, b = labels.shape
    out = np.zeros((n, b, num_classes), dtype=np.float64)
    out[np.arange(n)[:, None], np.arange(b)[None, :], labels] = 1.0
    return out


#: batch-norm epsilon, the default of ``modules._batch_norm`` as well
_BN_EPSILON = 1e-5


def _is_token_ids(x: object) -> bool:
    """Integer arrays are token ids; float arrays and tensors are features
    that go straight to the head, the rule ``EmbeddingClassifier.apply``
    follows (e.g. adversarial inputs that are already embedded)."""
    return not isinstance(x, Tensor) and np.asarray(x).dtype.kind in "iu"


def supports_batched_loss(model: Model, loss_fn: LossFn) -> bool:
    """Whether the closed-form kernels take this model and loss."""
    if loss_fn is not cross_entropy:
        return False
    return isinstance(model, (LogisticRegression, MLP, EmbeddingClassifier))


def batch_key(model: Model, x: object, y: object) -> Optional[Tuple]:
    """What one node's ``(x, y)`` arrays stack by for the kernels.

    The key is the batch's shapes and input kind; ``None`` marks a batch
    the kernels decline by its shape or dtype (:func:`_batch`'s checks on
    one node), which the tape then runs or reports.  Reads no data, so
    labels outside the classes are found only when a kernel is built.
    ``model`` must be one :func:`supports_batched_loss` accepts.
    """
    x, y = np.asarray(x), np.asarray(y)
    if isinstance(model, EmbeddingClassifier) and x.dtype.kind in "iu":
        row = (model.seq_len,)
    else:
        mlp = model.head if isinstance(model, EmbeddingClassifier) else model
        row = (mlp.input_dim,)
    if (
        x.shape[1:] != row
        or y.shape != x.shape[:1]
        or not y.size
        or y.dtype.kind not in "iu"
    ):
        return None
    return x.shape, x.dtype.kind, y.shape


# ----------------------------------------------------------------------
# Closed-form exact meta-gradient over the node axis
# ----------------------------------------------------------------------
#
# Notation (per node; every array carries the leading node axis): layer
# ``l`` maps its input ``a_l`` (``a_0 = X``) to ``z_l = a_l W_l + b_l``;
# a hidden layer then batch-normalizes (``x̂ = (z − μ)·s``, ``s =
# (var + ε)^-½``, ``u = x̂ γ + β``; without BN ``u = z``) and activates,
# ``a_{l+1} = act(u)``; the last ``z`` is the logits.  ``δ`` marks a
# cotangent of the mean cross-entropy, a dot marks a tangent along the
# direction ``v`` (Pearlmutter's R-op), so ``H v`` is the tangent of the
# inner gradient.


class _Layer(NamedTuple):
    """Parameter names and width of one dense layer."""

    w: str
    b: str
    norm: Optional[Tuple[str, str]]  # (gamma, beta) on BN hidden layers
    fan_in: int
    fan_out: int


def _dense_layers(model: Model) -> Tuple[List[_Layer], str]:
    """The model's dense layers and activation.

    Logistic regression is the case with no hidden layer, so its
    activation is never applied; an :class:`EmbeddingClassifier` is its
    head after the frozen lookup."""
    if isinstance(model, LogisticRegression):
        layer = _Layer("W", "b", None, model.input_dim, model.num_classes)
        return [layer], "relu"
    mlp = model.head if isinstance(model, EmbeddingClassifier) else model
    assert isinstance(mlp, MLP)
    hidden = len(mlp.hidden_dims)
    sizes = (mlp.input_dim, *mlp.hidden_dims, mlp.num_classes)
    layers = [
        _Layer(
            f"W{i}",
            f"b{i}",
            (f"gamma{i}", f"beta{i}") if mlp.batch_norm and i < hidden else None,
            sizes[i],
            sizes[i + 1],
        )
        for i in range(hidden + 1)
    ]
    return layers, mlp.activation


def _param_shapes(model: Model) -> Dict[str, Tuple[int, ...]]:
    """Each parameter's per-node shape, as ``model.init`` builds it."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    for layer in _dense_layers(model)[0]:
        shapes[layer.w] = (layer.fan_in, layer.fan_out)
        for name in (layer.b, *(layer.norm or ())):
            shapes[name] = (layer.fan_out,)
    return shapes


class _Hidden(NamedTuple):
    """A hidden layer's forward values at one parameter point."""

    norm: Optional[Tuple[np.ndarray, np.ndarray]]  # (x̂, s) with BN
    act1: np.ndarray  # act'(u)
    act2: Optional[np.ndarray]  # act''(u); None where it is zero (ReLU)
    out: np.ndarray  # a_{l+1} = act(u)


class _HiddenBack(NamedTuple):
    """A hidden layer's cotangents, kept for the tangent of the backward."""

    d_out: np.ndarray  # δa_{l+1}
    d_u: np.ndarray  # δu
    norm: Optional[Tuple[np.ndarray, np.ndarray]]  # (δx̂, mean_B(δx̂ ⊙ x̂))


def _tmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-node ``aᵀ b``."""
    return np.matmul(a.swapaxes(1, 2), b)


def _sum(a: np.ndarray) -> np.ndarray:
    """Sum over the batch axis, kept for broadcasting: ``(N, 1, H)``.

    A ones-row matmul: several times faster than numpy's strided
    reduction over the middle axis on these shapes."""
    return np.matmul(np.ones((a.shape[0], 1, a.shape[1])), a)


def _mean(a: np.ndarray) -> np.ndarray:
    """Mean over the batch axis, kept for broadcasting."""
    return _sum(a) / a.shape[1]


def _exp_shifted(
    logits: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class-axis max ``shift``, ``e = exp(logits - shift)`` and
    ``s = Σ e``: the softmax is ``e / s``, and :func:`_xent` takes the
    losses from the same three.

    Reductions call ``ufunc.reduce``: ``np.max``/``np.sum`` arithmetic
    without their wrapper, which costs as much again on one node."""
    shift = np.maximum.reduce(logits, axis=2, keepdims=True)
    e = np.exp(logits - shift)
    return shift, e, np.add.reduce(e, axis=2, keepdims=True)


def _softmax(logits: np.ndarray) -> np.ndarray:
    _, e, s = _exp_shifted(logits)
    return e / s


def _xent(
    logits: np.ndarray, targets: np.ndarray, shift: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """The ``(N,)`` mean cross-entropies against one-hot ``targets`` (the
    arithmetic of ``ops._xent_forward``, with the class axis last)."""
    logp = logits - (np.log(s) + shift)
    return -np.add.reduce(logp * targets, axis=(1, 2)) / logits.shape[1]


def _activate(
    kind: str, u: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """``act(u)``, ``act'(u)`` and ``act''(u)`` (``None`` for ReLU).

    The ReLU mask is the reference op's ``u > 0``, so kinks agree."""
    if kind == "relu":
        mask = (u > 0).astype(np.float64)
        return u * mask, mask, None
    t = np.tanh(u)
    act1 = 1.0 - t * t
    return t, act1, -2.0 * t * act1


def _forward(
    p: Arrays, layers: Sequence[_Layer], activation: str, z: np.ndarray
) -> Tuple[List[_Hidden], np.ndarray]:
    """Hidden values and logits, given the first layer's ``z``."""
    hidden: List[_Hidden] = []
    for layer, following in zip(layers, layers[1:]):
        norm = None
        u = z
        if layer.norm is not None:
            gamma, beta = layer.norm
            centered = z - _mean(z)
            inv_std = np.power(_mean(centered * centered) + _BN_EPSILON, -0.5)
            xhat = centered * inv_std
            norm = (xhat, inv_std)
            u = xhat * p[gamma][:, None] + p[beta][:, None]
        out, act1, act2 = _activate(activation, u)
        hidden.append(_Hidden(norm, act1, act2, out))
        z = np.matmul(out, p[following.w]) + p[following.b][:, None]
    return hidden, z


def _backward(
    p: Arrays,
    layers: Sequence[_Layer],
    hidden: Sequence[_Hidden],
    dz: np.ndarray,
) -> Tuple[Arrays, List[np.ndarray], List[_HiddenBack]]:
    """Gradients of every parameter but ``W0``, from the logits cotangent.

    Also returns each layer's ``δz`` (``W0``'s gradient is ``X_inᵀ δz_0``)
    and the hidden layers' cotangents."""
    grads: Arrays = {}
    dzs: List[np.ndarray] = [dz] * len(layers)
    backs: List[_HiddenBack] = []
    for i in reversed(range(len(layers))):
        layer = layers[i]
        if i < len(hidden):
            h = hidden[i]
            d_out = dz
            dz = d_u = d_out * h.act1
            norm = None
            if layer.norm is not None and h.norm is not None:
                (gamma, beta), (xhat, inv_std) = layer.norm, h.norm
                grads[gamma] = _sum(d_u * xhat)[:, 0]
                grads[beta] = _sum(d_u)[:, 0]
                d_xhat = d_u * p[gamma][:, None]
                m2 = _mean(d_xhat * xhat)
                dz = inv_std * (d_xhat - _mean(d_xhat) - xhat * m2)
                norm = (d_xhat, m2)
            backs.insert(0, _HiddenBack(d_out, d_u, norm))
        dzs[i] = dz
        grads[layer.b] = _sum(dz)[:, 0]
        if i > 0:
            grads[layer.w] = _tmatmul(hidden[i - 1].out, dz)
            dz = np.matmul(dz, np.swapaxes(p[layer.w], 1, 2))
    return grads, dzs, backs


def _hessian_vector(
    p: Arrays,
    v: Arrays,
    layers: Sequence[_Layer],
    hidden: Sequence[_Hidden],
    probs: np.ndarray,
    dzs: Sequence[np.ndarray],
    backs: Sequence[_HiddenBack],
    z0_dot: np.ndarray,
) -> Tuple[Arrays, np.ndarray]:
    """``H v`` for every parameter but ``W0``, plus ``δż_0``.

    The tangent of the inner forward along ``v`` (``z0_dot`` is the first
    layer's ``ż``), then the tangent of its backward: the R-op through the
    dense layers, batch norm with batch statistics, the activation and
    softmax-xent."""
    z_dot = z0_dot
    out_dots: List[np.ndarray] = []
    tangents: List[Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]] = []
    for i, layer in enumerate(layers):
        if i > 0:
            z_dot = (
                np.matmul(out_dots[-1], p[layer.w])
                + np.matmul(hidden[i - 1].out, v[layer.w])
                + v[layer.b][:, None]
            )
        if i == len(hidden):
            break
        h = hidden[i]
        u_dot, norm_dot = z_dot, None
        if layer.norm is not None and h.norm is not None:
            (gamma, beta), (xhat, inv_std) = layer.norm, h.norm
            centered_dot = z_dot - _mean(z_dot)
            # ṡ = −s·κ, with κ = s·mean_B(x̂ ⊙ ċ)
            kappa = inv_std * _mean(xhat * centered_dot)
            xhat_dot = inv_std * centered_dot - xhat * kappa
            u_dot = (
                xhat_dot * p[gamma][:, None]
                + xhat * v[gamma][:, None]
                + v[beta][:, None]
            )
            norm_dot = (xhat_dot, kappa)
        out_dots.append(h.act1 * u_dot)
        tangents.append((u_dot, norm_dot))

    pd = probs * z_dot
    dz_dot = (pd - probs * np.add.reduce(pd, 2, keepdims=True)) / pd.shape[1]
    hv: Arrays = {}
    for i in reversed(range(len(layers))):
        layer = layers[i]
        if i < len(hidden):
            h, back = hidden[i], backs[i]
            u_dot, norm_dot = tangents[i]
            dz_dot = dz_dot * h.act1
            if h.act2 is not None:
                dz_dot = dz_dot + back.d_out * h.act2 * u_dot
            if (
                layer.norm is not None
                and h.norm is not None
                and back.norm is not None
                and norm_dot is not None
            ):
                (gamma, beta), (xhat, inv_std) = layer.norm, h.norm
                (d_xhat, m2), (xhat_dot, kappa) = back.norm, norm_dot
                hv[gamma] = _sum(dz_dot * xhat + back.d_u * xhat_dot)[:, 0]
                hv[beta] = _sum(dz_dot)[:, 0]
                dxhat_dot = (
                    dz_dot * p[gamma][:, None] + back.d_u * v[gamma][:, None]
                )
                m2_dot = _mean(dxhat_dot * xhat + d_xhat * xhat_dot)
                dz_dot = inv_std * (
                    dxhat_dot - _mean(dxhat_dot) - xhat_dot * m2 - xhat * m2_dot
                ) - kappa * dzs[i]
        hv[layer.b] = _sum(dz_dot)[:, 0]
        if i > 0:
            hv[layer.w] = _tmatmul(hidden[i - 1].out, dz_dot) + _tmatmul(
                out_dots[i - 1], dzs[i]
            )
            dz_dot = np.matmul(dz_dot, np.swapaxes(p[layer.w], 1, 2)) + (
                np.matmul(dzs[i], np.swapaxes(v[layer.w], 1, 2))
            )
    return hv, dz_dot


def _batch(
    model: Model, batch: Tuple[np.ndarray, np.ndarray], dim: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(N, B, dim)`` first-layer inputs (token ids looked up; float
    features go to the head, as ``EmbeddingClassifier.apply`` sends them) and one-hot
    labels, or ``None`` for a batch the tape should report."""
    x, y = batch[0], np.asarray(batch[1])
    if isinstance(model, EmbeddingClassifier) and _is_token_ids(x):
        ids = np.asarray(x)
        if ids.ndim != 3 or ids.shape[2] != model.seq_len:
            return None
        x = model.embedding.data[ids].reshape(ids.shape[0], ids.shape[1], dim)
    else:
        x = x.data if isinstance(x, Tensor) else np.asarray(x)
        if x.dtype != np.longdouble:  # kept for extended-precision references
            x = x.astype(np.float64, copy=False)
    if x.shape[2:] != (dim,) or y.shape != x.shape[:2] or not y.size:
        return None
    try:
        return x, batched_one_hot(y, model.output_dim)
    except (TypeError, ValueError):  # not integers, or outside the classes
        return None


def batched_meta_gradient(
    model: Model,
    train: Tuple[np.ndarray, np.ndarray],
    tests: Sequence[Tuple[np.ndarray, np.ndarray]],
    alpha: float,
    loss_fn: LossFn = cross_entropy,
    inner_steps: int = 1,
    first_order: bool = False,
) -> Optional[Kernel]:
    """The block's one-step MAML meta-gradient kernel, or ``None``.

    ``train`` and each of ``tests`` are stacked ``(x, y)`` batches, fixed
    for the block's ``T0`` steps.  ``kernel(theta, gradient=…, losses=…)``
    maps stacked θ, raw arrays by name, to the stacked gradient of ``Σ_k
    L(φ; test_k)``, ``φ = θ − α·∇L(θ; train)``, by sorted name, and the
    ``(N,)`` losses ``Σ_k L(φ_i; test_ik)``, as it asks.  The gradient is
    ``v − α·H v``, ``v`` the outer gradient at ``φ`` and ``H v`` the R-op
    of the inner gradient along ``v``, all on raw arrays; with
    ``first_order`` (FOMAML) it is ``v`` and no ``H v`` is formed.  The
    losses alone need only the inner step and the outer forwards.  Each
    outer set runs its own forward: batch norm uses each batch's own
    statistics.

    ``kernel(theta, rates, …)`` takes stacked per-parameter inner rates
    ``α`` by name in place of the scalar (Meta-SGD's ``exp(log α)``):
    ``φ = θ − α ⊙ ∇L(θ; train)``, the gradient is ``v − H(α ⊙ v)`` (or
    ``v``), and ``rate_gradient=True`` asks for the log-rates' gradient
    ``−α ⊙ ∇L(θ; train) ⊙ v``.

    Hoisted out of the calls, once per build (a stacked meta block keeps
    its group's kernel for the fit): the embedded features, the
    one-hot labels and the first-layer Gram block ``X_out X_inᵀ``, where
    ``X_out`` stacks every outer set's rows.  The first layer is linear in
    fixed inputs, so a scalar-α call forms no ``W0``-sized temporary: the
    outer first-layer pre-activation is ``X_out θ_W0 − α (X_out X_inᵀ)
    δz_0``, the first-layer tangent ``(X_in X_outᵀ) δz_0^out + v_b0``, and
    ``W0``'s meta-gradient the single matmul ``[X_out; X_in]ᵀ [δz_0^out;
    −α δż_0]`` (``X_outᵀ δz_0^out`` first-order).  A call with rates forms
    ``W0``'s inner gradient and ``α ⊙ v`` for ``W0`` instead.

    Returns ``None`` — the caller runs the tape — for a loss other than
    ``cross_entropy``, ``inner_steps != 1``, a disabled fast path, a
    model :func:`supports_batched_loss` rejects, no outer set, or inputs
    the tape should report: mismatched shapes, an empty batch, labels
    that are not integers or lie outside the classes.  Each kernel call
    counts one ``fused_dispatches``.
    """
    if (
        inner_steps != 1
        or not fastpath.enabled()
        or not supports_batched_loss(model, loss_fn)
        or not tests
    ):
        return None
    layers, activation = _dense_layers(model)
    batches = [_batch(model, b, layers[0].fan_in) for b in (train, *tests)]
    prepared = [b for b in batches if b is not None]
    if len(prepared) < len(batches) or len({len(x) for x, _ in prepared}) > 1:
        return None
    (x_in, targets_in), *outer = prepared
    x_out = outer[0][0] if len(outer) == 1 else np.concatenate(
        [x for x, _ in outer], axis=1
    )
    n_in, n_out = x_in.shape[1], x_out.shape[1]
    # Each outer set's row range within X_out, with its one-hot labels.
    ends = list(accumulate(x.shape[1] for x, _ in outer))
    sets = [(a, b, t) for a, b, (_, t) in zip([0, *ends], ends, outer)]
    names = sorted(_param_shapes(model))
    w0, b0 = layers[0].w, layers[0].b
    inputs = np.concatenate([x_out, x_in], axis=1)  # [X_out; X_in]
    gram = np.matmul(x_out, np.swapaxes(x_in, 1, 2))  # X_out X_inᵀ
    # Calls with rates read X_out and X_in as views of [X_out; X_in], so a
    # held kernel keeps one copy of the features.
    x_out, x_in = inputs[:, :n_out], inputs[:, n_out:]

    def kernel(
        theta: Arrays, rates: Optional[Arrays] = None, *,
        gradient: bool = False, losses: bool = False,
        rate_gradient: bool = False,
    ) -> KernelOutputs:
        _asked(gradient, losses, rate_gradient)
        if rate_gradient and rates is None:
            raise ValueError("rate_gradient needs the call's rates")
        if rates is None:
            z0 = np.matmul(inputs, theta[w0])  # [X_out θ_W0; X_in θ_W0]
            z0_in = z0[:, n_out:]
        else:
            z0_in = np.matmul(x_in, theta[w0])
        # Inner step at θ (eq. 3): φ for every parameter but W0 (and W0
        # too with rates, which the Gram hoist cannot scale).
        hidden, logits = _forward(
            theta, layers, activation, z0_in + theta[b0][:, None]
        )
        probs = _softmax(logits)
        grads, dzs, backs = _backward(
            theta, layers, hidden, (probs - targets_in) / n_in
        )
        if rates is None:
            phi = {name: theta[name] - alpha * g for name, g in grads.items()}
            z0_out = (
                z0[:, :n_out] - alpha * np.matmul(gram, dzs[0])
                + phi[b0][:, None]
            )
        else:
            grads[w0] = _tmatmul(x_in, dzs[0])
            phi = {
                name: theta[name] - rates[name] * g
                for name, g in grads.items()
            }
            z0_out = np.matmul(x_out, phi[w0]) + phi[b0][:, None]
        # Outer gradient v at φ, summed over the outer sets.
        v: Arrays = {}
        total = np.zeros(len(z0_out))
        dz0_out = []
        for start, end, targets in sets:
            hidden_out, logits_out = _forward(
                phi, layers, activation, z0_out[:, start:end]
            )
            shift, e, s = _exp_shifted(logits_out)
            if losses:
                total = total + _xent(logits_out, targets, shift, s)
            if gradient or rate_gradient:
                g, dzs_out, _ = _backward(
                    phi, layers, hidden_out, (e / s - targets) / (end - start)
                )
                v = {name: v[name] + g[name] for name in g} if v else g
                dz0_out.append(dzs_out[0])
        if not (gradient or rate_gradient):
            return KernelOutputs(losses=total)
        dz0 = dz0_out[0] if len(dz0_out) == 1 else np.concatenate(dz0_out, 1)
        if first_order or rates is not None:
            v[w0] = _tmatmul(x_out, dz0)
        if first_order or not gradient:
            meta = v
        elif rates is not None:  # v − H(α ⊙ v)
            u = {name: rates[name] * v[name] for name in names}
            hv, dz0_dot = _hessian_vector(
                theta, u, layers, hidden, probs, dzs, backs,
                np.matmul(x_in, u[w0]) + u[b0][:, None],
            )
            hv[w0] = _tmatmul(x_in, dz0_dot)
            meta = {name: v[name] - hv[name] for name in names}
        else:
            hv, dz0_dot = _hessian_vector(
                theta, v, layers, hidden, probs, dzs, backs,
                _tmatmul(gram, dz0) + v[b0][:, None],
            )
            meta = {name: v[name] - alpha * hv[name] for name in hv}
            meta[w0] = _tmatmul(
                inputs, np.concatenate([dz0, -alpha * dz0_dot], 1)
            )
        return KernelOutputs(
            {name: meta[name] for name in names} if gradient else None,
            total if losses else None,
            rate_gradient={
                name: -rates[name] * grads[name] * v[name] for name in names
            } if rate_gradient else None,
        )

    return kernel


# ----------------------------------------------------------------------
# Closed-form first-order gradient over the node axis
# ----------------------------------------------------------------------
def batched_loss_gradient(
    model: Model,
    batch: Tuple[np.ndarray, np.ndarray],
    loss_fn: LossFn = cross_entropy,
) -> Optional[Kernel]:
    """The batch's first-order cross-entropy kernel, or ``None``.

    ``batch`` is a stacked ``(x, y)`` pair.  ``kernel(theta, gradient=…,
    input_gradient=…)`` maps stacked θ, raw arrays by name, to the ``(N,)``
    mean cross-entropies' gradients by sorted name and the input gradient
    ``δz_0 W_0ᵀ``: ``(N, B, dim)``, in the first layer's feature space
    (embedded, for token ids; the space :func:`repro.attacks.embed_inputs`
    perturbs), as it asks.  One forward and one backward on raw arrays,
    less ``X_inᵀ δz_0`` or ``δz_0 W_0ᵀ`` where unread; the one-hot labels
    and the embedded features are hoisted out of the calls.
    ``kernel(theta, x, …)`` takes new first-layer inputs of the batch's
    shape against the same labels, for an ascent on the inputs.

    Declines where :func:`batched_meta_gradient` does: a disabled fast
    path, a loss other than ``cross_entropy``, a model
    :func:`supports_batched_loss` rejects, or a batch the tape should
    report (mismatched shapes, no rows, labels that are not integers or
    lie outside the classes).  Each kernel call counts one
    ``fused_dispatches``.
    """
    if not fastpath.enabled() or not supports_batched_loss(model, loss_fn):
        return None
    layers, activation = _dense_layers(model)
    prepared = _batch(model, batch, layers[0].fan_in)
    if prepared is None:
        return None
    features, targets = prepared
    names = sorted(_param_shapes(model))
    w0, b0 = layers[0].w, layers[0].b

    def kernel(
        theta: Arrays, x: Optional[np.ndarray] = None, *,
        gradient: bool = False, input_gradient: bool = False,
    ) -> KernelOutputs:
        _asked(gradient, input_gradient)
        x = features if x is None else x
        hidden, logits = _forward(
            theta, layers, activation,
            np.matmul(x, theta[w0]) + theta[b0][:, None],
        )
        grads, dzs, _ = _backward(
            theta, layers, hidden,
            (_softmax(logits) - targets) / targets.shape[1],
        )
        if gradient:
            grads[w0] = _tmatmul(x, dzs[0])
        return KernelOutputs(
            {name: grads[name] for name in names} if gradient else None,
            input_gradient=np.matmul(dzs[0], np.swapaxes(theta[w0], 1, 2))
            if input_gradient else None,
        )

    return kernel


def node_loss_gradient(
    model: Model,
    params: Params,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: LossFn = cross_entropy,
) -> Optional[Tuple[Kernel, Arrays]]:
    """:func:`batched_loss_gradient` on one node's ``(x, y)``, with
    ``params`` as its one-node stack of raw arrays; ``None`` where the
    kernel declines or the tree's names or shapes are not the model's
    (the tape handles those).  Support is checked first: only a model
    :func:`supports_batched_loss` accepts has parameter shapes to compare."""
    if not supports_batched_loss(model, loss_fn) or (
        {name: t.shape for name, t in params.items()} != _param_shapes(model)
    ):
        return None
    kernel = batched_loss_gradient(
        model, (np.asarray(x)[None], np.asarray(y)[None]), loss_fn
    )
    if kernel is None:
        return None
    return kernel, {name: t.data[None] for name, t in params.items()}
