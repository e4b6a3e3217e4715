"""Client executors: how one block of local steps is scheduled.

Between two aggregations, nodes are independent — node ``i``'s T0 local
steps never read node ``j``'s state — so how a block is grouped cannot
change a bit.  One loop runs every block; the two executors differ only
in their grouping key:

``SerialExecutor``
    One node per group.  The reference schedule and the default.

``VectorizedExecutor``
    One group per ``vectorized_signature``: same-shaped nodes stack on a
    leading node axis and take each step as one batched computation.

A node runs in a group's ``local_block_vectorized`` when its strategy sets
``supports_vectorized`` and its ``vectorized_signature`` is not ``None``
(the closed-form kernels serve it).  Every other node runs its own
``local_step``s, the per-node reference path, under either executor.

Determinism contract: both executors hand each node the generator
``default_rng([base_seed, block_index, node_id])`` for its block
(``_node_rng``), so a strategy that draws randomness gets the same stream
on either executor, in any node order.  NumPy's ``SeedSequence`` reads
that list as ``uint32`` words: each entry split into little-endian 32-bit
words (``[0]`` for zero), so a key of three values below 2³² is three
words.  The generator is seeded on its first attribute access: a block
whose strategy never draws (no shipped strategy does) builds none, and
one that draws gets the same stream, draw for draw.  It still passes
through ``instrument_node_rng``, so an installed RNG ledger lists every
stream.  Two runs of either executor are bit-for-bit identical
(``tests/engine/test_seed_equivalence.py``), and so are a serial and a
vectorized run: a stacked kernel step computes each node's slice as that
node's one-node stack does (``tests/nn/test_stacked_slices.py``).

A group whose block raises runs again one node at a time, so the
:class:`ExecutorError` names a node whose own block fails, whichever node
of a stack it is.

Observability: ``run_block`` accepts the run's telemetry.  With telemetry
enabled, a one-node group is timed as a ``local_train`` span and a larger
group as a ``local_train_vectorized`` span; per-node
``node_result``/``node_error`` events, and per-block ``vectorized_block``
and ``cache_hit`` events land on the unified event log.  None of this
touches node state or RNG streams: traced runs stay bit-identical to
untraced ones, and an untraced block reads no clock.
"""

from __future__ import annotations

import time
import traceback
from typing import (
    Any, Dict, Hashable, List, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from ..autodiff import fastpath
from ..federated.node import EdgeNode
from ..obs.telemetry import Telemetry, resolve
from ..utils.rng import instrument_node_rng
from ..utils.serialization import params_fingerprint

__all__ = ["Executor", "ExecutorError", "SerialExecutor", "VectorizedExecutor"]

#: a block's groups: whether each runs stacked, and its nodes
Groups = List[Tuple[bool, List[EdgeNode]]]


class ExecutorError(RuntimeError):
    """A node's block failed; carries which node, which block, and why.

    The executors translate any exception escaping a block into this, so
    the engine's retry logic (and a human reading a traceback) knows
    *where* the failure happened.  The original exception rides along as
    ``__cause__`` and its formatted traceback as :attr:`worker_traceback`,
    the text a ``node_error`` event records.
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


class _LazyGenerator:
    """``np.random.default_rng(seed)``, built on the first attribute access.

    Every attribute is the built generator's, so draws are the same, draw
    for draw; a block that never draws never pays for the build.
    """

    __slots__ = ("_seed", "_rng")

    def __init__(self, seed: List[int]) -> None:
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    def __getattr__(self, name: str) -> Any:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return getattr(self._rng, name)

    def __reduce__(self) -> Any:
        """Copies and pickles as the built generator, state included."""
        return self.__getattr__("__reduce__")()


def _node_rng(
    base_seed: int, block_index: int, node_id: int
) -> np.random.Generator:
    """The node's ``[base_seed, block_index, node_id]`` stream for a block,
    seeded on its first draw.

    Passed through ``instrument_node_rng``, so an installed RNG ledger
    records it the same way on every executor.
    """
    return instrument_node_rng(
        _LazyGenerator([base_seed, block_index, node_id]),  # type: ignore[arg-type]
        block_index,
        node_id,
    )


def _run_group(
    strategy: Any,
    stacked: bool,
    group: List[EdgeNode],
    steps: int,
    block_index: int,
    base_seed: int,
) -> None:
    """One group's block: a stacked block, or one node's own local steps."""
    rngs = [_node_rng(base_seed, block_index, node.node_id) for node in group]
    if stacked:
        strategy.local_block_vectorized(group, steps, rngs)
        return
    (node,) = group
    strategy.bind_node_rng(rngs[0])
    for _ in range(steps):
        strategy.local_step(node)


def _culprit(
    strategy: Any,
    group: List[EdgeNode],
    steps: int,
    block_index: int,
    base_seed: int,
    error: BaseException,
) -> Tuple[EdgeNode, BaseException, str]:
    """The node a failed group's ``error`` is charged to, with its cause
    and traceback; called while ``error`` is being handled.

    A stacked block fails as a whole, so a group of several nodes runs
    again one node at a time and the first node whose own block raises is
    named.  Should every node pass alone, the group's first node carries
    the group's error.  Nodes that ran are left stepped; the engine
    restores its snapshot before a retry.
    """
    trace = traceback.format_exc()
    if len(group) > 1:
        for node in group:
            try:
                _run_group(strategy, True, [node], steps, block_index, base_seed)
            except Exception as own:
                return node, own, traceback.format_exc()
    return group[0], error, trace


class _GroupingExecutor:
    """The block loop; a subclass supplies the stacking key."""

    def _group_key(self, node: EdgeNode, signature: Hashable) -> Hashable:
        """The stacked group a node with a signature joins."""
        raise NotImplementedError

    def _groups(self, strategy: Any, nodes: Sequence[EdgeNode]) -> Groups:
        """The block's groups, in first-appearance order over ``nodes``.

        A node its strategy does not stack (no ``supports_vectorized``,
        or no signature) is a group of its own that runs ``local_step``.
        """
        stacking = getattr(strategy, "supports_vectorized", False)
        groups: Dict[Tuple[bool, Hashable], List[EdgeNode]] = {}
        for node in nodes:
            signature = strategy.vectorized_signature(node) if stacking else None
            key = (
                (False, node.node_id) if signature is None
                else (True, self._group_key(node, signature))
            )
            groups.setdefault(key, []).append(node)
        return [(stacked, group) for (stacked, _), group in groups.items()]

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
        traced = tel.enabled
        fused_base = fastpath.stats().fused_dispatches if traced else 0
        groups = self._groups(strategy, nodes)
        for stacked, group in groups:
            if traced:
                span = (
                    tel.span(
                        "local_train", node=group[0].node_id,
                        block=block_index, steps=steps,
                    )
                    if len(group) == 1
                    else tel.span(
                        "local_train_vectorized", block=block_index,
                        nodes=len(group), steps=steps,
                    )
                )
                start = time.perf_counter()
            try:
                _run_group(
                    strategy, stacked, group, steps, block_index, base_seed
                )
            except Exception as exc:
                node, cause, trace = _culprit(
                    strategy, group, steps, block_index, base_seed, exc
                )
                if traced:
                    span.set(error=repr(cause))
                    span.end()
                    tel.events.emit(
                        "node_error", node=node.node_id, block=block_index,
                        error=repr(cause), traceback=trace,
                    )
                raise ExecutorError(
                    node.node_id, block_index, cause, worker_traceback=trace,
                ) from cause
            if traced:
                span.end()
                _emit_node_results(
                    tel, group, stacked, block_index, steps,
                    time.perf_counter() - start,
                )
        if traced:
            _emit_block_events(
                tel, groups, block_index,
                fastpath.stats().fused_dispatches - fused_base,
            )


class SerialExecutor(_GroupingExecutor):
    """One node per group: each node's block runs on its own (the
    reference schedule)."""

    def _group_key(self, node: EdgeNode, signature: Hashable) -> Hashable:
        return node.node_id


class VectorizedExecutor(_GroupingExecutor):
    """One group per signature: same-shaped nodes run one stacked block."""

    def _group_key(self, node: EdgeNode, signature: Hashable) -> Hashable:
        return signature


def _emit_node_results(
    tel: Any,
    group: List[EdgeNode],
    stacked: bool,
    block_index: int,
    steps: int,
    duration: float,
) -> None:
    """One ``node_result`` per node; a group's time is split evenly."""
    for node in group:
        fields: Dict[str, Any] = {}
        if tel.node_fingerprints:
            fields["params_fp"] = params_fingerprint(node.params)
        if stacked:
            fields["vectorized"] = True
        tel.events.emit(
            "node_result", node=node.node_id, block=block_index,
            steps=steps, duration_s=duration / len(group), **fields,
        )


def _emit_block_events(
    tel: Any, groups: Groups, block_index: int, fused_dispatches: int
) -> None:
    """The block's stacking summary and its ``cache_hit`` event.

    ``cache_hit`` counts the block's dispatches to fused ops and kernels;
    a block with none emits no ``cache_hit``.
    """
    stacked_groups = [group for stacked, group in groups if stacked]
    stacked_nodes = sum(len(group) for group in stacked_groups)
    fallback_nodes = len(groups) - len(stacked_groups)  # one node each
    tel.events.emit(
        "vectorized_block", block=block_index,
        vectorized_nodes=stacked_nodes, fallback_nodes=fallback_nodes,
        groups=len(stacked_groups),
    )
    tel.counter("fl_vectorized_nodes_total").inc(stacked_nodes)
    tel.counter("fl_vectorized_fallback_total").inc(fallback_nodes)
    if fused_dispatches:
        tel.events.emit(
            "cache_hit", block=block_index, fused_dispatches=fused_dispatches
        )
