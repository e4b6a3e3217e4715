"""Reverse-mode automatic differentiation over NumPy arrays.

The engine is tape-free: every operation records its parents and, for each
parent, a vector-Jacobian-product (VJP) closure.  Crucially, VJP closures are
written *in terms of differentiable operations*, so the cotangents produced
during a backward pass are themselves graph nodes.  Calling :func:`grad` with
``create_graph=True`` therefore yields gradients that can be differentiated
again — exactly what MAML-style meta-learning needs to propagate through an
inner gradient-descent step.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray`` (always ``float64`` for numerical
  robustness of second-order gradient checks).
* Leaf tensors are created with :func:`tensor`; intermediate tensors carry a
  ``_ctx`` describing how they were produced.
* Gradients are accumulated functionally (no ``.grad`` mutation) by
  :func:`grad`; a convenience ``backward()`` that populates ``.grad`` is also
  provided for familiarity.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]
#: Anything the operator sugar accepts on the other side of a Tensor.
TensorOperand = Union["Tensor", np.ndarray, float, int, Sequence]

__all__ = ["Tensor", "tensor", "grad", "is_tensor", "toposort", "GradientError"]


class GradientError(RuntimeError):
    """Raised when a gradient request cannot be satisfied."""


class _Context:
    """Records how a tensor was produced.

    Attributes
    ----------
    parents:
        The input tensors of the producing operation.
    vjps:
        One callable per parent mapping the output cotangent (a ``Tensor``)
        to the parent cotangent (a ``Tensor``), or ``None`` for parents that
        do not require grad.
    op_name:
        Human-readable operation name, used in error messages.
    """

    __slots__ = ("parents", "vjps", "op_name")

    def __init__(
        self,
        parents: Sequence["Tensor"],
        vjps: Sequence[Optional[Callable[["Tensor"], "Tensor"]]],
        op_name: str,
    ) -> None:
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)
        self.op_name = op_name


class Tensor:
    """A NumPy-backed tensor participating in a differentiable graph."""

    __slots__ = ("data", "requires_grad", "grad", "_ctx")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _ctx: Optional[_Context] = None,
    ) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrap raw array data, not another Tensor")
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[Tensor] = None
        self._ctx = _ctx

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return a read-only view of the underlying array.

        The view shares storage with this tensor, so it is free — but the
        graph records *references*, and a caller writing through the result
        would silently invalidate every VJP that captured the buffer.  The
        view is therefore marked non-writeable; copy it to mutate.
        """
        view = self.data.view()
        view.setflags(write=False)
        return view

    def is_leaf(self) -> bool:
        return self._ctx is None

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing this tensor's data (read-only).

        The detached tensor wraps a non-writeable view so the shared buffer
        cannot be mutated through the detached handle (the same hazard
        :meth:`numpy` guards against).
        """
        view = self.data.view()
        view.setflags(write=False)
        return Tensor(view)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})\n{self.data!r}"

    # ------------------------------------------------------------------
    # Operator sugar (implementations live in repro.autodiff.ops)
    # ------------------------------------------------------------------
    def __add__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.add(self, ops.as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.sub(self, ops.as_tensor(other))

    def __rsub__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.sub(ops.as_tensor(other), self)

    def __mul__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.mul(self, ops.as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.div(self, ops.as_tensor(other))

    def __rtruediv__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.div(ops.as_tensor(other), self)

    def __neg__(self) -> "Tensor":
        from . import ops

        return ops.neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        from . import ops

        return ops.power(self, exponent)

    def __matmul__(self, other: TensorOperand) -> "Tensor":
        from . import ops

        return ops.matmul(self, ops.as_tensor(other))

    def __getitem__(self, index: object) -> "Tensor":
        from . import ops

        return ops.getitem(self, index)

    # Convenience method forms -----------------------------------------
    def sum(
        self,
        axis: Union[None, int, Tuple[int, ...]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        from . import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(
        self,
        axis: Union[None, int, Tuple[int, ...]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: Union[int, Tuple[int, ...], List[int]]) -> "Tensor":
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            return ops.reshape(self, tuple(shape[0]))
        return ops.reshape(self, tuple(int(s) for s in shape))  # type: ignore[arg-type]

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        from . import ops

        return ops.transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad_output: Optional["Tensor"] = None) -> None:
        """Populate ``.grad`` on every reachable leaf requiring grad."""
        # One graph walk: collect the leaves from the same topological order
        # grad() consumes, instead of toposorting once here and again inside
        # grad().
        order = toposort(self)
        leaves = [t for t in order if t.is_leaf() and t.requires_grad]
        grads = grad(
            self, leaves, grad_output=grad_output, allow_unused=True,
            _order=order,
        )
        for leaf, g in zip(leaves, grads):
            if g is None:
                continue
            if leaf.grad is None:
                leaf.grad = g
            else:
                leaf.grad = Tensor(leaf.grad.data + g.data)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def is_tensor(value: object) -> bool:
    return isinstance(value, Tensor)


# Walk hook installed by repro.autodiff.profile.profile_ops(); called as
# hook(num_nodes) after every full graph traversal.  Lets the profiler count
# traversals so regressions that re-walk the same graph are observable.
_WALK_HOOK: Optional[Callable[[int], None]] = None


def toposort(root: Tensor) -> List[Tensor]:
    """Return tensors reachable from ``root`` in topological order (inputs first).

    Public so graph tooling (the sanitizer in :mod:`repro.analysis`) can walk
    recorded graphs without reaching into engine internals.
    """
    order: List[Tensor] = []
    visited: Set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._ctx is not None:
            for parent in node._ctx.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    if _WALK_HOOK is not None:
        _WALK_HOOK(len(order))
    return order


def _requires_path(order: Iterable[Tensor], targets: Sequence[Tensor]) -> Set[int]:
    """IDs of tensors on a differentiable path from any target to the root."""
    target_ids = {id(t) for t in targets}
    needed: Set[int] = set()
    for node in order:  # inputs first
        if id(node) in target_ids:
            needed.add(id(node))
        elif node._ctx is not None and any(
            id(p) in needed for p in node._ctx.parents
        ):
            needed.add(id(node))
    return needed


def _cotangents(
    order: List[Tensor],
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Tensor,
) -> dict[int, Tensor]:
    """The reference backward: every input's cotangent, by ``id``."""
    on_path = _requires_path(order, inputs)

    input_ids = {id(t) for t in inputs}
    cotangents: dict[int, Tensor] = {id(output): grad_output}
    for node in reversed(order):  # root first
        cot = cotangents.get(id(node))
        if cot is None:
            continue
        if node._ctx is not None:
            ctx = node._ctx
            for parent, vjp in zip(ctx.parents, ctx.vjps):
                if vjp is None or id(parent) not in on_path:
                    continue
                contribution = vjp(cot)
                if contribution.shape != parent.shape:
                    raise GradientError(
                        f"vjp of op '{ctx.op_name}' produced shape "
                        f"{contribution.shape}, expected {parent.shape}"
                    )
                existing = cotangents.get(id(parent))
                if existing is None:
                    cotangents[id(parent)] = contribution
                else:
                    cotangents[id(parent)] = existing + contribution
        if id(node) not in input_ids:
            del cotangents[id(node)]  # free memory; final value not needed
    return cotangents


def grad(
    output: Tensor,
    inputs: Sequence[Tensor],
    grad_output: Optional[Tensor] = None,
    create_graph: bool = False,
    allow_unused: bool = False,
    _order: Optional[List[Tensor]] = None,
) -> List[Optional[Tensor]]:
    """Compute ``d output / d inputs`` via reverse-mode differentiation.

    Parameters
    ----------
    output:
        Tensor to differentiate.  If non-scalar, ``grad_output`` must be
        supplied (the cotangent to seed the backward pass with).
    inputs:
        Tensors with respect to which gradients are requested.
    grad_output:
        Seed cotangent; defaults to ``1`` for scalar outputs.
    create_graph:
        If ``True`` the returned gradients are themselves differentiable
        graph nodes (enables second-order gradients).  If ``False`` the
        same backward runs with graph recording off, and its gradients are
        returned as detached leaves.
    allow_unused:
        If ``True``, inputs not reachable from ``output`` yield ``None``;
        otherwise a :class:`GradientError` is raised.
    _order:
        Internal: a topological order of ``output``'s graph obtained from
        :func:`toposort`, to avoid a second walk when the caller already
        has one (``Tensor.backward``).

    Returns
    -------
    list of Tensor (or None for unused inputs when ``allow_unused``).
    """
    if not isinstance(output, Tensor):
        raise TypeError("output must be a Tensor")
    if grad_output is None:
        if output.size != 1:
            raise GradientError(
                "grad_output must be provided for non-scalar outputs"
            )
        grad_output = Tensor(np.ones_like(output.data))
    elif grad_output.shape != output.shape:
        raise GradientError(
            f"grad_output shape {grad_output.shape} does not match "
            f"output shape {output.shape}"
        )

    order = toposort(output) if _order is None else _order

    if create_graph:
        cotangents = _cotangents(order, output, inputs, grad_output)
    else:
        from . import ops

        # The result is detached, so nothing reads the graph the VJPs'
        # differentiable ops would record: run them with recording off.
        previous = ops._set_grad_enabled(False)
        try:
            cotangents = _cotangents(order, output, inputs, grad_output)
        finally:
            ops._set_grad_enabled(previous)

    results: List[Optional[Tensor]] = []
    for inp in inputs:
        g = cotangents.get(id(inp))
        if g is None:
            if not allow_unused:
                raise GradientError(
                    "an input is unused in the graph; pass allow_unused=True "
                    "to receive None for it"
                )
            results.append(None)
        else:
            results.append(g if create_graph else g.detach())
    return results
