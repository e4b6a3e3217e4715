"""RNG stream ledger: runtime accounting of every per-node draw.

The determinism contract seeds one generator per ``(seed, block, node)``
(see ``docs/ENGINE.md``); a run is reproducible iff every stochastic
decision flows through those streams.  The ledger verifies the *usage* side
of that contract at runtime: :func:`install_ledger` hooks the executors'
per-node generator creation (``repro.utils.rng.instrument_node_rng``) so
each generator is replaced by a recording proxy.  Per ``(block, node)``
stream, the ledger accumulates

* ``draws`` — how many generator methods were invoked, and
* ``fingerprint`` — an order-sensitive FNV-1a hash over
  ``method:shape`` of every draw,

so two runs of the same config must produce identical ledgers.  A strategy
that draws from anything *else* (``np.random.*`` module state, an argless
``default_rng()``) leaves the ledger untouched — which is exactly how
``repro check-determinism`` tells "same draws, different results"
(out-of-band entropy, caught by ``params_fp``) apart from "different draw
sequence" (control-flow divergence, caught here).

Export surfaces: ``rng_ledger`` events on the run's event log, and
``analysis_det_*`` metrics through the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..utils.rng import set_node_rng_hook

__all__ = [
    "StreamRecord",
    "RngLedger",
    "LedgerRng",
    "install_ledger",
    "uninstall_ledger",
    "EntropyPlanter",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = 0xFFFFFFFFFFFFFFFF

#: Generator attributes that are not draws (no state advance worth noting).
_PASSTHROUGH_ATTRS = frozenset(
    {"bit_generator", "spawn", "__getstate__", "__setstate__", "__reduce__"}
)


def _fnv(acc: int, text: str) -> int:
    for byte in text.encode():
        acc = ((acc ^ byte) * _FNV_PRIME) & _FNV_MASK
    return acc


@dataclass
class StreamRecord:
    """Accumulated draw statistics for one ``(block, node)`` stream."""

    block: int
    node: int
    draws: int = 0
    fingerprint: int = _FNV_OFFSET

    def record(self, method: str, result: Any) -> None:
        shape = np.shape(result) if result is not None else ()
        self.draws += 1
        self.fingerprint = _fnv(self.fingerprint, f"{method}:{shape}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "block": self.block,
            "node": self.node,
            "draws": self.draws,
            "fingerprint": f"{self.fingerprint:016x}",
        }


class RngLedger:
    """Collects :class:`StreamRecord` entries across one run."""

    def __init__(self) -> None:
        self._streams: Dict[Tuple[int, int], StreamRecord] = {}

    def stream(self, block: int, node: int) -> StreamRecord:
        key = (block, node)
        record = self._streams.get(key)
        if record is None:
            record = StreamRecord(block=block, node=node)
            self._streams[key] = record
        return record

    def records(self) -> List[StreamRecord]:
        """All streams in deterministic ``(block, node)`` order."""
        return [self._streams[key] for key in sorted(self._streams)]

    @property
    def total_draws(self) -> int:
        return sum(record.draws for record in self._streams.values())

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self.records()]

    def emit_events(self, events: Any) -> None:
        """One ``rng_ledger`` event per stream, in deterministic order."""
        for record in self.records():
            events.emit("rng_ledger", **record.to_dict())

    def to_registry(self, registry: Any) -> None:
        """Export ledger totals as ``analysis_det_*`` metrics."""
        registry.counter("analysis_det_draws_total").inc(self.total_draws)
        registry.gauge("analysis_det_streams").set(len(self._streams))
        blocks = {record.block for record in self._streams.values()}
        registry.gauge("analysis_det_blocks_observed").set(len(blocks))


class LedgerRng:
    """Recording proxy around one per-node ``numpy.random.Generator``.

    Every callable attribute access returns a wrapper that forwards to the
    real generator and records ``(method, result shape)`` into the ledger.
    The proxy is draw-transparent: results are returned unchanged and the
    underlying stream advances exactly as without the ledger, so ledgered
    runs stay bit-identical to plain ones.
    """

    def __init__(
        self,
        inner: np.random.Generator,
        record: StreamRecord,
    ) -> None:
        self._inner = inner
        self._record = record

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._inner, name)
        if not callable(attr) or name in _PASSTHROUGH_ATTRS:
            return attr
        record = self._record

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = attr(*args, **kwargs)
            record.record(name, result)
            return result

        return traced

    def __repr__(self) -> str:
        return f"LedgerRng({self._inner!r})"


def install_ledger(ledger: Optional[RngLedger] = None) -> RngLedger:
    """Start recording every per-node stream into ``ledger`` (or a new one).

    Replaces any previously installed node-RNG hook; pair with
    :func:`uninstall_ledger` (ideally in a ``finally``).
    """
    active = ledger if ledger is not None else RngLedger()

    def hook(
        rng: np.random.Generator, block_index: int, node_id: int
    ) -> np.random.Generator:
        return LedgerRng(rng, active.stream(block_index, node_id))  # type: ignore[return-value]

    set_node_rng_hook(hook)
    return active


def uninstall_ledger() -> None:
    """Stop recording: per-node generators pass through untouched again."""
    set_node_rng_hook(None)


class EntropyPlanter:
    """Strategy wrapper that *plants* a nondeterminism bug on purpose.

    ``repro check-determinism --plant-entropy block=B,node=N`` wraps the
    trainer's strategy in this proxy, which perturbs node ``N``'s
    parameters with OS entropy during block ``B`` — exactly the class of
    bug (an unseeded draw inside a strategy) the checker exists to catch.
    Two runs of a planted config must diverge, and the bisector must name
    ``(B, N)``; this is asserted in CI and in ``tests/analysis``.

    Everything except ``local_step`` / ``on_block_end`` forwards to the
    wrapped strategy, so the planted run is otherwise faithful.
    """

    #: class attribute so ``__getattr__`` cannot forward the wrapped
    #: strategy's flag: the plant lives in ``local_step``, and a stacked
    #: block would silently skip it
    supports_vectorized = False

    def __init__(self, inner: Any, block: int, node: int) -> None:
        self._inner = inner
        self._plant_block = block
        self._plant_node = node
        self._current_block = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def local_step(self, node: Any) -> Any:
        result = self._inner.local_step(node)
        if (
            self._current_block == self._plant_block
            and node.node_id == self._plant_node
        ):
            from ..autodiff import Tensor

            rng = np.random.default_rng()  # reprolint: disable=DET101
            name = sorted(node.params)[0]
            tensor = node.params[name]
            noise = rng.normal(scale=1e-6, size=np.shape(tensor.data))
            node.params[name] = Tensor(np.asarray(tensor.data) + noise)
        return result

    def on_block_end(self, *args: Any, **kwargs: Any) -> Any:
        self._current_block += 1
        return self._inner.on_block_end(*args, **kwargs)
