"""Client executors: how one block of local steps is scheduled.

Between two aggregations, nodes are independent — node ``i``'s T0 local
steps never read node ``j``'s state.  An :class:`Executor` decides how
that block runs; every executor runs it in this process:

``SerialExecutor``
    Runs every node's block node by node.  The reference implementation
    and the default.

``VectorizedExecutor`` (:mod:`repro.engine.vectorized`)
    Stacks groups of same-shaped nodes on a leading node axis and runs
    each group's block as one batched computation, falling back to
    ``SerialExecutor`` for the rest.

Determinism contract: both executors bind the strategy's per-node
generator to ``default_rng([base_seed, block_index, node_id])`` before the
node's block (``_node_rng``), so a strategy that draws randomness
during ``local_step`` gets the same stream on either executor, in any
node order.  Two serial runs are bit-for-bit identical
(``tests/engine/test_seed_equivalence.py``), as are two vectorized runs;
serial and vectorized runs agree within tolerance.

Observability: ``run_block`` accepts the run's telemetry.  With telemetry
enabled, each node's block is timed as a ``local_train`` span, and
per-node ``node_result``/``node_error`` events and a per-block
``cache_hit`` event land on the unified event log.  None of this touches
node state or RNG streams: traced runs stay bit-identical to untraced
ones.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, Optional, Protocol, Sequence

import numpy as np

from ..autodiff import fastpath
from ..federated.node import EdgeNode
from ..obs.telemetry import Telemetry, resolve
from ..utils.rng import instrument_node_rng
from ..utils.serialization import params_fingerprint

__all__ = ["Executor", "ExecutorError", "SerialExecutor"]

#: fast-path counter keys surfaced on the per-block ``cache_hit`` event
_CACHE_EVENT_KEYS = (
    "backwards", "plan_hits", "plan_misses", "raw_vjp_calls", "fused_dispatches",
)


class ExecutorError(RuntimeError):
    """A node's block failed; carries which node, which block, and why.

    Both executors translate any exception escaping ``local_step`` into
    this, so the engine's retry logic (and a human reading a traceback)
    knows *where* the failure happened.  The original exception rides
    along as ``__cause__`` and its formatted traceback as
    :attr:`worker_traceback`, the text a ``node_error`` event records.
    """

    def __init__(
        self,
        node_id: int,
        block_index: int,
        cause: BaseException,
        worker_traceback: Optional[str] = None,
    ):
        self.node_id = node_id
        self.block_index = block_index
        self.worker_traceback = worker_traceback
        super().__init__(
            f"node {node_id} failed in block {block_index}: {cause!r}"
        )


class Executor(Protocol):
    """Schedules one block (``steps`` local iterations) for every node."""

    def run_block(
        self,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        steps: int,
        *,
        block_index: int,
        base_seed: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None: ...


def _node_rng(
    base_seed: int, block_index: int, node_id: int
) -> np.random.Generator:
    """The node's ``[base_seed, block_index, node_id]`` stream for a block.

    Built through ``instrument_node_rng``, so an installed RNG ledger
    records it the same way on every executor.
    """
    return instrument_node_rng(
        np.random.default_rng([base_seed, block_index, node_id]),
        block_index,
        node_id,
    )


def _emit_cache_event(tel: Any, block_index: int, delta: Dict[str, int]) -> None:
    """One ``cache_hit`` event per block summarising fast-path activity.

    A block whose every step took a fused kernel runs no backward at all,
    so fused dispatches alone also count as activity.
    """
    if delta.get("backwards", 0) or delta.get("fused_dispatches", 0):
        tel.events.emit(
            "cache_hit",
            block=block_index,
            **{k: delta.get(k, 0) for k in _CACHE_EVENT_KEYS},
        )


class SerialExecutor:
    """In-process, node-by-node execution (the reference schedule)."""

    def run_block(
        self,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        steps: int,
        *,
        block_index: int,
        base_seed: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        tel = resolve(telemetry)
        if not tel.enabled:
            # Disabled path: exactly the pre-observability loop, no clock
            # reads, no per-node bookkeeping.
            for node in nodes:
                strategy.bind_node_rng(
                    _node_rng(base_seed, block_index, node.node_id)
                )
                try:
                    for _ in range(steps):
                        strategy.local_step(node)
                except Exception as exc:
                    raise ExecutorError(
                        node.node_id, block_index, exc,
                        worker_traceback=traceback.format_exc(),
                    ) from exc
            return

        events = tel.events
        fastpath_base = fastpath.stats().as_dict()
        for node in nodes:
            strategy.bind_node_rng(
                _node_rng(base_seed, block_index, node.node_id)
            )
            start = time.perf_counter()
            span = tel.span(
                "local_train", node=node.node_id, block=block_index,
                steps=steps,
            )
            try:
                for _ in range(steps):
                    strategy.local_step(node)
            except Exception as exc:
                worker_tb = traceback.format_exc()
                span.set(error=repr(exc))
                span.end()
                events.emit(
                    "node_error", node=node.node_id, block=block_index,
                    error=repr(exc), traceback=worker_tb,
                )
                raise ExecutorError(
                    node.node_id, block_index, exc,
                    worker_traceback=worker_tb,
                ) from exc
            span.end()
            result_fields: Dict[str, Any] = {}
            if tel.node_fingerprints:
                result_fields["params_fp"] = params_fingerprint(node.params)
            events.emit(
                "node_result", node=node.node_id, block=block_index,
                steps=steps, duration_s=time.perf_counter() - start,
                **result_fields,
            )
        _emit_cache_event(
            tel, block_index, fastpath.stats().delta_since(fastpath_base)
        )
