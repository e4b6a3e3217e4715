"""The fast-path switch: closed-form kernels and fused cross-entropy ops.

While the switch is on (the default), the hot call sites leave the generic
tape for arithmetic that computes the same quantities with far fewer
steps:

* :func:`repro.nn.fused.fused_model_loss` records one fused
  ``softmax_xent`` node instead of the ~15-node log-softmax and nll
  composite (bit-identical values and gradients);
* the closed-form kernels of :mod:`repro.nn.batched` replace the tape for
  the exact and first-order meta-gradients, Meta-SGD's learned-rate step
  and first-order loss gradients (within ``1e-12`` of the tape;
  docs/AUTODIFF.md).

:func:`disable` / :func:`disabled` send every call site down the generic
tape, the ``--no-fastpath`` arithmetic.  The backward itself is the same
either way: ``grad`` has one reference backward in
:mod:`repro.autodiff.tensor`.  Each dispatch to a fused op or a kernel
counts one ``fused_dispatches``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator

__all__ = [
    "FastpathStats",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "note_fused_dispatch",
    "reset_stats",
    "stats",
    "to_registry",
]

_ENABLED = True


def enabled() -> bool:
    """Whether call sites take the fused ops and the closed-form kernels."""
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily run the generic tape everywhere (e.g. for A/B testing)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


@dataclass
class FastpathStats:
    """Process-wide fast path activity counters."""

    fused_dispatches: int = 0

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
    """Record that a call site dispatched to a fused op or a kernel."""
    _STATS.fused_dispatches += 1


def to_registry(registry: Any, prefix: str = "autodiff_fastpath_") -> None:
    """Export the counters into a :class:`repro.obs.MetricRegistry`."""
    for key, value in _STATS.as_dict().items():
        registry.counter(f"{prefix}{key}_total").inc(value)
