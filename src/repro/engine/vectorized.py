"""The vectorized executor: one stacked tape per block instead of N tapes.

Between aggregations nodes are independent, so a block of T0 local steps
over N nodes is N disjoint computations on identically-shaped buffers.
:class:`VectorizedExecutor` exploits that by handing whole *groups* of
nodes to the strategy's ``local_block_vectorized`` — which stacks their
parameter trees and minibatches into ``(N, ...)`` arrays and runs one
batched ``local_step`` using the node-axis autodiff ops — rather than
scheduling per-node work like the serial executor.

Capability and fallback
-----------------------
A strategy opts in with the ``supports_vectorized`` class flag and a
``vectorized_signature(node)`` grouping key.  Nodes whose signature is
``None`` (ragged data, unsupported model/loss) — or every node, when the
strategy never opted in — run through an internal
:class:`~repro.engine.executors.SerialExecutor` *inside the same block*,
so mixed fleets work and no strategy ever breaks by omission.

Determinism contract
--------------------
Per-node generators follow the same ``[base_seed, block_index, node_id]``
discipline as the serial executor (built through ``instrument_node_rng``
so the RNG ledger sees identical streams).  Stacked fp math may reorder
accumulations relative to the serial tapes, so serial-vs-vectorized
equality is *tolerance*-gated; vectorized-vs-vectorized double runs are
bit-identical (asserted by ``repro check-determinism --compare
vectorized`` and the engine bench).  The serial golden traces are
untouched by construction — this executor never runs unless selected.

Observability: per-group ``local_train_vectorized`` spans, per-node
``node_result`` events (with params fingerprints when enabled), one
``vectorized_block`` event and ``fl_vectorized_nodes_total`` /
``fl_vectorized_fallback_total`` counters per block, plus the standard
per-block ``cache_hit`` fast-path summary.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import fastpath
from ..federated.node import EdgeNode
from ..obs.telemetry import Telemetry, resolve
from ..utils.serialization import params_fingerprint
from .executors import (
    ExecutorError,
    SerialExecutor,
    _emit_cache_event,
    _node_rng,
)

__all__ = ["VectorizedExecutor"]


class VectorizedExecutor:
    """Runs each block as stacked group tapes, serial fallback for the rest."""

    def __init__(self) -> None:
        self._serial = SerialExecutor()

    @staticmethod
    def _partition(
        strategy: Any, nodes: Sequence[EdgeNode]
    ) -> Tuple[Dict[Tuple, List[EdgeNode]], List[EdgeNode]]:
        """Split nodes into signature groups and the serial-fallback rest.

        Group order is first-appearance order over ``nodes``, so the
        schedule is deterministic for a fixed node sequence.
        """
        groups: Dict[Tuple, List[EdgeNode]] = {}
        fallback: List[EdgeNode] = []
        if not getattr(strategy, "supports_vectorized", False):
            return groups, list(nodes)
        for node in nodes:
            signature = strategy.vectorized_signature(node)
            if signature is None:
                fallback.append(node)
            else:
                groups.setdefault(signature, []).append(node)
        return groups, fallback

    @staticmethod
    def _group_rngs(
        group: Sequence[EdgeNode], block_index: int, base_seed: int
    ) -> List[np.random.Generator]:
        return [
            _node_rng(base_seed, block_index, node.node_id) for node in group
        ]

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
        groups, fallback = self._partition(strategy, nodes)

        if not tel.enabled:
            for group in groups.values():
                rngs = self._group_rngs(group, block_index, base_seed)
                try:
                    strategy.local_block_vectorized(group, steps, rngs)
                except Exception as exc:
                    raise ExecutorError(
                        group[0].node_id, block_index, exc,
                        worker_traceback=traceback.format_exc(),
                    ) from exc
            if fallback:
                self._serial.run_block(
                    strategy, fallback, steps,
                    block_index=block_index, base_seed=base_seed,
                    telemetry=telemetry,
                )
            return

        events = tel.events
        fastpath_base = fastpath.stats().as_dict()
        vectorized_count = sum(len(g) for g in groups.values())
        for group in groups.values():
            rngs = self._group_rngs(group, block_index, base_seed)
            start = time.perf_counter()
            span = tel.span(
                "local_train_vectorized", block=block_index,
                nodes=len(group), steps=steps,
            )
            try:
                strategy.local_block_vectorized(group, steps, rngs)
            except Exception as exc:
                worker_tb = traceback.format_exc()
                span.set(error=repr(exc))
                span.end()
                events.emit(
                    "node_error", node=group[0].node_id, block=block_index,
                    error=repr(exc), traceback=worker_tb,
                )
                raise ExecutorError(
                    group[0].node_id, block_index, exc,
                    worker_traceback=worker_tb,
                ) from exc
            span.end()
            duration = time.perf_counter() - start
            for node in group:
                result_fields: Dict[str, Any] = {}
                if tel.node_fingerprints:
                    result_fields["params_fp"] = params_fingerprint(
                        node.params
                    )
                events.emit(
                    "node_result", node=node.node_id, block=block_index,
                    steps=steps, duration_s=duration / len(group),
                    vectorized=True, **result_fields,
                )
        events.emit(
            "vectorized_block", block=block_index,
            vectorized_nodes=vectorized_count, fallback_nodes=len(fallback),
            groups=len(groups),
        )
        tel.counter("fl_vectorized_nodes_total").inc(vectorized_count)
        tel.counter("fl_vectorized_fallback_total").inc(len(fallback))
        # Emit the stacked tapes' fast-path summary before the fallback
        # runs (the serial executor emits its own for the rest).
        _emit_cache_event(
            tel, block_index, fastpath.stats().delta_since(fastpath_base)
        )
        if fallback:
            self._serial.run_block(
                strategy, fallback, steps,
                block_index=block_index, base_seed=base_seed,
                telemetry=telemetry,
            )
