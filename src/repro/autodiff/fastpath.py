"""First-order backward fast path: raw-ndarray VJPs over cached plans.

``grad(..., create_graph=False)`` — every inner-loop gradient, every
``meta_gradient`` outer derivative, every evaluation — does not need
differentiable cotangents, yet the reference backward in
:mod:`repro.autodiff.tensor` builds a full graph of cotangent tensors and
closures only to detach it at the end.  On top of that, the federated engine
replays the *same* graph structure thousands of times per run (one per local
step), re-deriving the toposort, the on-path set, and every intermediate
allocation from scratch each time.

This module removes those costs while staying **bit-identical** to the
reference backward: graph recording is switched off while VJP closures run,
raw ndarray VJPs skip Tensor construction, and a structure-keyed LRU plan
cache reuses the backward schedule and its fan-in accumulation buffers
across structurally identical steps.  Plans are keyed by graph structure,
not by live graph, because every local step builds a fresh tape.  Per-op
parameters (reduction axes, slice indices, captured constants) are *not*
cached — the executor always calls the VJPs recorded on the live graph — so
a cache hit can never apply the wrong arithmetic.

Bit-exactness: the executor replays exactly the float operations of the
reference backward, in exactly the same accumulation order (reverse
topological, parents in recorded order, ``existing + contribution``).
Raw-VJP memos are epoch-guarded (``ops._BACKWARD_EPOCH``) so reused
accumulation buffers can never satisfy a stale cotangent-identity memo.
This is proven by ``tests/autodiff/test_fastpath.py`` (including hypothesis
properties over random graphs and warm-buffer reuse) and by the seven golden
seed-equivalence traces running with the fast path on.

The fast path is bypassed when ``create_graph=True`` (MAML inner steps that
need double backward) or after :func:`disable` / inside :func:`disabled`.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import ops
from .tensor import GradientError, Tensor

__all__ = [
    "FastpathStats",
    "backward",
    "clear_cache",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "plan_cache_size",
    "reset_stats",
    "stats",
    "to_registry",
]

_ENABLED = True

#: LRU capacity of the plan cache.  A federated run exercises a handful of
#: distinct graph structures (inner step, outer step, eval — per batch
#: shape), so a small cache captures the entire working set.
_MAX_PLANS = 64


def enabled() -> bool:
    """Whether ``grad(..., create_graph=False)`` uses the fast path."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily force the reference backward (e.g. for A/B testing)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
@dataclass
class FastpathStats:
    """Process-wide fast path activity counters."""

    backwards: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_evictions: int = 0
    raw_vjp_calls: int = 0
    closure_vjp_calls: int = 0
    fused_dispatches: int = 0
    hot_allocations: int = 0
    result_copies: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a previous :meth:`as_dict` snapshot."""
        current = self.as_dict()
        return {k: current[k] - baseline.get(k, 0) for k in current}


_STATS = FastpathStats()


def stats() -> FastpathStats:
    return _STATS


def reset_stats() -> None:
    global _STATS
    _STATS = FastpathStats()


def note_fused_dispatch() -> None:
    """Record that a call site dispatched to a fused composite op."""
    _STATS.fused_dispatches += 1


def to_registry(registry: Any, prefix: str = "autodiff_fastpath_") -> None:
    """Export counters and the plan-cache gauge into a :class:`repro.obs.MetricRegistry`."""
    for key, value in _STATS.as_dict().items():
        registry.counter(f"{prefix}{key}_total").inc(value)
    registry.gauge(f"{prefix}cached_plans").set(float(len(_PLANS)))


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
#: One hashable entry per graph node: ``(None, shape)`` for leaves, else
#: ``(op_name, shape, parent_positions, pruned_vjp_mask)``.
Signature = Tuple[Tuple[Tuple[Any, ...], ...], Tuple[int, ...]]


@dataclass
class _Plan:
    """Structure-derived backward schedule, reusable across identical graphs.

    ``node_edges`` lists, root-first, each node that propagates a cotangent
    together with its surviving ``(vjp_index, parent_position)`` edges —
    exactly the pairs the reference backward would execute.  ``buffers``
    holds a persistent accumulation array for every position receiving two
    or more contributions.
    """

    node_edges: List[Tuple[int, List[Tuple[int, int]]]]
    input_positions: Tuple[int, ...]
    buffers: Dict[int, np.ndarray] = field(default_factory=dict)


_PLANS: "OrderedDict[Signature, _Plan]" = OrderedDict()


def plan_cache_size() -> int:
    return len(_PLANS)


def clear_cache() -> None:
    _PLANS.clear()


def _signature(
    order: Sequence[Tensor],
    inputs: Sequence[Tensor],
    pos_map: Dict[int, int],
) -> Signature:
    nodes: List[Tuple[Any, ...]] = []
    for node in order:
        ctx = node._ctx
        if ctx is None:
            nodes.append((None, node.data.shape))
        else:
            nodes.append(
                (
                    ctx.op_name,
                    node.data.shape,
                    tuple(pos_map[id(p)] for p in ctx.parents),
                    tuple(v is not None for v in ctx.vjps),
                )
            )
    input_positions = tuple(pos_map.get(id(t), -1) for t in inputs)
    return (tuple(nodes), input_positions)


def _build_plan(sig: Signature) -> _Plan:
    nodes_sig, input_positions = sig
    n = len(nodes_sig)
    input_set = {p for p in input_positions if p >= 0}

    # On-path filter, positionally identical to tensor._requires_path.
    needed = [False] * n
    for i, entry in enumerate(nodes_sig):
        if i in input_set:
            needed[i] = True
        elif entry[0] is not None and any(needed[p] for p in entry[2]):
            needed[i] = True

    # Walk root-first exactly like the reference backward, recording which
    # edges fire and how many contributions each position receives.
    has_cot = [False] * n
    contributions = [0] * n
    if n:
        has_cot[n - 1] = True
        contributions[n - 1] = 1  # the seed
    node_edges: List[Tuple[int, List[Tuple[int, int]]]] = []
    for i in range(n - 1, -1, -1):
        entry = nodes_sig[i]
        if not has_cot[i] or entry[0] is None:
            continue
        edges: List[Tuple[int, int]] = []
        for j, parent_pos in enumerate(entry[2]):
            if not entry[3][j] or not needed[parent_pos]:
                continue
            edges.append((j, parent_pos))
            contributions[parent_pos] += 1
            has_cot[parent_pos] = True
        if edges:
            node_edges.append((i, edges))

    buffers = {
        i: np.empty(nodes_sig[i][1], dtype=np.float64)
        for i in range(n)
        if contributions[i] >= 2
    }
    return _Plan(
        node_edges=node_edges,
        input_positions=input_positions,
        buffers=buffers,
    )


def _get_plan(sig: Signature) -> _Plan:
    plan = _PLANS.get(sig)
    if plan is not None:
        _PLANS.move_to_end(sig)
        _STATS.plan_hits += 1
        return plan
    plan = _build_plan(sig)
    _PLANS[sig] = plan
    _STATS.plan_misses += 1
    if len(_PLANS) > _MAX_PLANS:
        _PLANS.popitem(last=False)
        _STATS.plan_evictions += 1
    return plan


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def backward(
    output: Tensor,
    inputs: Sequence[Tensor],
    order: Sequence[Tensor],
    seed: np.ndarray,
) -> List[Optional[np.ndarray]]:
    """Execute a first-order backward pass over ``order`` on raw ndarrays.

    ``order`` must be the topological order of ``output``'s graph (inputs
    first, ``output`` last) as produced by :func:`repro.autodiff.toposort`.
    Returns one gradient array per input (``None`` for unreachable inputs);
    results are fresh arrays that never alias graph or plan state.
    """
    _STATS.backwards += 1
    ops._BACKWARD_EPOCH += 1  # invalidates per-node raw-VJP memos

    pos_map = {id(node): i for i, node in enumerate(order)}
    plan = _get_plan(_signature(order, inputs, pos_map))

    cots: List[Optional[np.ndarray]] = [None] * len(order)
    if order:
        cots[len(order) - 1] = seed

    raw_calls = 0
    closure_calls = 0
    previous = ops._set_grad_enabled(False)
    try:
        for node_pos, edges in plan.node_edges:
            node = order[node_pos]
            ctx = node._ctx
            assert ctx is not None  # structural: plan only lists ctx nodes
            cot = cots[node_pos]
            assert cot is not None  # structural: plan only lists seeded nodes
            cot_tensor: Optional[Tensor] = None
            for vjp_index, parent_pos in edges:
                raw_vjp = (
                    None if ctx.raw_vjps is None else ctx.raw_vjps[vjp_index]
                )
                if raw_vjp is not None:
                    contribution = raw_vjp(cot)
                    raw_calls += 1
                else:
                    if cot_tensor is None:
                        cot_tensor = Tensor(cot)
                    vjp = ctx.vjps[vjp_index]
                    assert vjp is not None  # structural: pruned mask in sig
                    contribution = vjp(cot_tensor).data
                    closure_calls += 1
                parent = order[parent_pos]
                if contribution.shape != parent.shape:
                    raise GradientError(
                        f"vjp of op '{ctx.op_name}' produced shape "
                        f"{contribution.shape}, expected {parent.shape}"
                    )
                existing = cots[parent_pos]
                buffer = plan.buffers.get(parent_pos)
                if existing is None:
                    if buffer is None:
                        cots[parent_pos] = contribution
                    else:
                        np.copyto(buffer, contribution)
                        cots[parent_pos] = buffer
                else:
                    # existing is this position's buffer; np.add(a, b, out=a)
                    # is bit-equal to the reference's `existing + c`.
                    np.add(existing, contribution, out=existing)
    finally:
        ops._set_grad_enabled(previous)

    results: List[Optional[np.ndarray]] = []
    for pos in plan.input_positions:
        value = None if pos < 0 else cots[pos]
        results.append(None if value is None else np.array(value, copy=True))
    copies = sum(r is not None for r in results)
    _STATS.raw_vjp_calls += raw_calls
    _STATS.closure_vjp_calls += closure_calls
    _STATS.result_copies += copies
    _STATS.hot_allocations += raw_calls + closure_calls + copies
    return results
