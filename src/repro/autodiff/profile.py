"""Tape profiler for the autodiff engine.

MAML-style double backward makes the computation graph the hot data
structure of this codebase: every meta-gradient builds a tape whose length
scales with the inner-step count, and aggregate wall-time is dominated by a
handful of op types (``matmul``, the softmax composites).  This module
measures that, without touching the engine when disabled:

* **op counts / tape length** — :func:`profile_ops` installs a hook on the
  op-construction path (``ops._make``), so every produced tensor is counted,
  split into grad-tracked (tape nodes) and constant outputs;
* **per-op-type wall time** — the public functions in :mod:`repro.autodiff.ops`
  are temporarily wrapped with timers.  Times are *inclusive*: a composite op
  (``log_softmax``) includes the primitives it calls internally.

Usage::

    with profile_ops() as prof:
        loss = model_loss(params)
        grads = grad(loss, leaves)
    print(prof.summary())
    prof.to_registry(telemetry.registry)   # export as telemetry counters

The hook slot is module-global, so profiling is process-wide and not
re-entrant; nested ``profile_ops`` raises.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import ops
from . import tensor as tensor_mod

__all__ = ["OpStats", "TapeProfiler", "profile_ops"]

#: Public op functions that get timing wrappers while profiling is active.
_TIMED_OPS = tuple(
    name
    for name in ops.__all__
    if name not in ("as_tensor", "zeros_like", "ones_like")
)


@dataclass
class OpStats:
    """Accumulated statistics for one op type."""

    calls: int = 0
    elements: int = 0
    grad_calls: int = 0
    seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


@dataclass
class TapeProfiler:
    """Collects per-op-type counts, element volume, and wall time."""

    op_stats: Dict[str, OpStats] = field(default_factory=dict)
    #: Full graph traversals (toposorts) observed while profiling; a backward
    #: pass should contribute exactly one.
    graph_walks: int = 0
    #: Total nodes visited across those traversals.
    walked_nodes: int = 0

    # -- recording (called from the ops hook / timing wrappers) ---------
    def record_creation(self, op_name: str, elements: int, requires: bool) -> None:
        stats = self.op_stats.get(op_name)
        if stats is None:
            stats = self.op_stats[op_name] = OpStats()
        stats.calls += 1
        stats.elements += elements
        if requires:
            stats.grad_calls += 1

    def record_walk(self, num_nodes: int) -> None:
        self.graph_walks += 1
        self.walked_nodes += num_nodes

    def record_time(self, op_name: str, seconds: float) -> None:
        stats = self.op_stats.get(op_name)
        if stats is None:
            stats = self.op_stats[op_name] = OpStats()
        stats.seconds += seconds

    # -- aggregate views ------------------------------------------------
    @property
    def total_ops(self) -> int:
        """Tensors produced by ops (graph nodes + constant outputs)."""
        return sum(s.calls for s in self.op_stats.values())

    @property
    def tape_length(self) -> int:
        """Grad-tracked tensors produced — the autodiff tape's node count."""
        return sum(s.grad_calls for s in self.op_stats.values())

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.op_stats.values())

    def summary(self, top: Optional[int] = None) -> str:
        """Aligned text table of op types, slowest first."""
        items = sorted(
            self.op_stats.items(), key=lambda kv: kv[1].seconds, reverse=True
        )
        if top is not None:
            items = items[:top]
        header = f"{'op':>12}  {'calls':>8}  {'tape':>8}  {'elements':>12}  {'seconds':>10}"
        lines = [header, "-" * len(header)]
        for name, s in items:
            lines.append(
                f"{name:>12}  {s.calls:>8d}  {s.grad_calls:>8d}  "
                f"{s.elements:>12d}  {s.seconds:>10.6f}"
            )
        lines.append(
            f"{'total':>12}  {self.total_ops:>8d}  {self.tape_length:>8d}  "
            f"{sum(s.elements for s in self.op_stats.values()):>12d}  "
            f"{self.total_seconds:>10.6f}"
        )
        return "\n".join(lines)

    def to_registry(self, registry: Any, prefix: str = "autodiff_") -> None:
        """Export into a :class:`repro.obs.MetricRegistry` as counters."""
        for name, s in self.op_stats.items():
            registry.counter(f"{prefix}op_calls_total", op=name).inc(s.calls)
            registry.counter(f"{prefix}op_elements_total", op=name).inc(s.elements)
            # Emit seconds unconditionally: a zero-time op (too fast for the
            # timer's resolution) must still produce the metric, otherwise
            # the exported series appear and vanish run-to-run.
            registry.counter(f"{prefix}op_seconds_total", op=name).inc(s.seconds)
        registry.counter(f"{prefix}tape_nodes_total").inc(self.tape_length)
        registry.counter(f"{prefix}graph_walks_total").inc(self.graph_walks)


def _timed(
    name: str, fn: Callable[..., Any], profiler: TapeProfiler
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.record_time(name, time.perf_counter() - start)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


@contextmanager
def profile_ops(
    profiler: Optional[TapeProfiler] = None,
) -> Iterator[TapeProfiler]:
    """Profile every autodiff op executed inside the ``with`` block."""
    if ops._PROFILE_HOOK is not None:
        raise RuntimeError("profile_ops() is already active")
    prof = profiler if profiler is not None else TapeProfiler()
    originals: List[Tuple[str, Callable[..., Any]]] = [
        (name, getattr(ops, name)) for name in _TIMED_OPS
    ]
    ops._PROFILE_HOOK = prof.record_creation
    tensor_mod._WALK_HOOK = prof.record_walk
    for name, fn in originals:
        # ops use trailing-underscore function names for builtins shadowing
        # (sum_, max_, ...) but plain names on the tape; key stats by the
        # tape name so counts and times land in the same bucket.
        setattr(ops, name, _timed(name.rstrip("_"), fn, prof))
    try:
        yield prof
    finally:
        ops._PROFILE_HOOK = None
        tensor_mod._WALK_HOOK = None
        for name, fn in originals:
            setattr(ops, name, fn)
