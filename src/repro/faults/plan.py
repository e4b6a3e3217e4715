"""Deterministic fault plans: *what* goes wrong, *when*, to *whom*.

A :class:`FaultPlan` composes validated schedules and is the one fault
interpreter: it answers every decision for a ``(block, node)`` cell
directly — :meth:`~FaultPlan.crashed`, :meth:`~FaultPlan.dropped`,
:meth:`~FaultPlan.delay_s`, :meth:`~FaultPlan.corruption`,
:meth:`~FaultPlan.flaky_failures` — plus the run-wide
:meth:`~FaultPlan.killed_after`.  The engine's
:class:`~repro.faults.injector.FaultInjector` and the
:class:`~repro.federated.fleet.FleetSimulator` ask the same methods (a fleet
*round* is an engine *block*), so one plan yields the same faults on both
paths; each path keeps its own policy for absorbing them.

Every stochastic decision is one draw from its own named
:mod:`repro.utils.rng` stream
``(plan seed, "fleet-fault", schedule index, kind, block, node)``, so it is a
pure function of the plan seed and the cell — never of execution order,
the node set, the run length, or the other schedules.  Same
``(seed, schedules)`` ⇒ same faults, regardless of executor or of whether
the run was resumed from a checkpoint mid-way; adding a node or
appending a schedule leaves every other cell's faults unchanged.  That
determinism is the subsystem's headline guarantee: a faulty run is as
bit-reproducible as a clean one.

Fault kinds
-----------
``crash``
    The node is down for ``duration`` blocks starting at ``block``: it runs
    no local steps and uploads nothing, then rejoins via the broadcast of
    the next aggregation it survives to see.
``drop``
    The node computes its block but the update is lost in transit — it is
    excluded from aggregation and resynchronized from the global model.
``corrupt``
    The update arrives damaged: ``mode="nan"`` poisons a ``fraction`` of
    entries with NaN (caught by the policy's quarantine), ``mode="scale"``
    silently multiplies the update by ``scale``.
``delay``
    Delivery is ``delay_s`` simulated seconds late.  Under a policy round
    timeout the node becomes a straggler and is dropped; without one the
    delay only shows up in the simulated round clock.
``flaky``
    The node's local block fails ``fail_times`` times before succeeding;
    the policy's bounded retry absorbs it (or the node misses the block
    when retries are exhausted).
``kill``
    The whole run dies at the end of ``block`` — after the checkpoint for
    that boundary is written — by raising
    :class:`~repro.faults.injector.RunInterrupted`.  Used to prove
    kill-and-resume bit-exactness.

Explicit events compose with the stochastic schedules: delays on one cell
add up, flaky failure counts take the maximum, and when several sources
corrupt one cell the first corrupt schedule in plan order wins, then the
first explicit event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..autodiff import Tensor
from ..nn.parameters import Params
from ..utils.rng import spawn

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "CrashSchedule",
    "DropSchedule",
    "CorruptSchedule",
    "DelaySchedule",
    "FlakyWorkerSchedule",
    "KillSchedule",
    "ExplicitSchedule",
    "FaultPlan",
    "FAULT_KINDS",
]

FAULT_KINDS = ("crash", "drop", "corrupt", "delay", "flaky", "kill")


def _validate(
    *,
    rate: float = 0.0,
    block: int = 0,
    duration: int = 1,
    mode: str = "nan",
    fraction: float = 1.0,
    delay_s: float = 0.0,
    fail_times: int = 1,
) -> None:
    """Reject out-of-range fault parameters when a schedule or event is built."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    if block < 0:
        raise ValueError("block must be non-negative")
    if duration < 1:
        raise ValueError("duration must be >= 1")
    if mode not in ("nan", "scale"):
        raise ValueError(f"unknown corruption mode '{mode}'")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if delay_s < 0:
        raise ValueError("delay_s must be non-negative")
    if fail_times < 1:
        raise ValueError("fail_times must be >= 1")


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault: ``kind`` hits ``node_id`` at ``block``."""

    kind: str
    block: int
    node_id: int = -1  # -1: not node-scoped (kill)
    duration: int = 1  # crash: blocks the node stays down
    mode: str = "nan"  # corrupt: "nan" | "scale"
    fraction: float = 1.0  # corrupt/nan: fraction of entries poisoned
    scale: float = 10.0  # corrupt/scale: multiplier
    delay_s: float = 0.0  # delay: extra simulated seconds
    fail_times: int = 1  # flaky: block failures before success

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'")
        _validate(
            block=self.block,
            duration=self.duration,
            mode=self.mode,
            fraction=self.fraction,
            delay_s=self.delay_s,
            fail_times=self.fail_times,
        )


class FaultSchedule:
    """Base class of the validated schedules a :class:`FaultPlan` composes."""

    kind: str = "?"


@dataclass(frozen=True)
class CrashSchedule(FaultSchedule):
    """Each (block, node) cell starts a crash with probability ``rate``."""

    rate: float
    duration: int = 1
    kind: str = field(default="crash", init=False)

    def __post_init__(self) -> None:
        _validate(rate=self.rate, duration=self.duration)


@dataclass(frozen=True)
class DropSchedule(FaultSchedule):
    """Each node's block update is lost with probability ``rate``."""

    rate: float
    kind: str = field(default="drop", init=False)

    def __post_init__(self) -> None:
        _validate(rate=self.rate)


@dataclass(frozen=True)
class CorruptSchedule(FaultSchedule):
    """Each node's block update is corrupted with probability ``rate``."""

    rate: float
    mode: str = "nan"
    fraction: float = 1.0
    scale: float = 10.0
    kind: str = field(default="corrupt", init=False)

    def __post_init__(self) -> None:
        _validate(rate=self.rate, mode=self.mode, fraction=self.fraction)


@dataclass(frozen=True)
class DelaySchedule(FaultSchedule):
    """Each node's delivery is ``delay_s`` late with probability ``rate``."""

    rate: float
    delay_s: float = 1.0
    kind: str = field(default="delay", init=False)

    def __post_init__(self) -> None:
        _validate(rate=self.rate, delay_s=self.delay_s)


@dataclass(frozen=True)
class FlakyWorkerSchedule(FaultSchedule):
    """A node's block fails ``fail_times`` before success, prob ``rate``."""

    rate: float
    fail_times: int = 1
    kind: str = field(default="flaky", init=False)

    def __post_init__(self) -> None:
        _validate(rate=self.rate, fail_times=self.fail_times)


@dataclass(frozen=True)
class KillSchedule(FaultSchedule):
    """Kill the run at the end of ``block`` (after its checkpoint)."""

    block: int
    kind: str = field(default="kill", init=False)

    def __post_init__(self) -> None:
        _validate(block=self.block)


@dataclass(frozen=True)
class ExplicitSchedule(FaultSchedule):
    """A literal event list — the fixture-friendly schedule."""

    fault_events: Tuple[FaultEvent, ...]
    kind: str = field(default="explicit", init=False)


_SCHEDULE_TYPES = (
    CrashSchedule,
    DropSchedule,
    CorruptSchedule,
    DelaySchedule,
    FlakyWorkerSchedule,
    KillSchedule,
    ExplicitSchedule,
)


class FaultPlan:
    """A seeded, composable collection of fault schedules.

    The plan is also their only interpreter: the decision methods below
    answer one ``(block, node)`` cell at a time in O(schedules), so no
    path ever tabulates faults over its whole node set or run length.
    """

    def __init__(
        self, schedules: Sequence[FaultSchedule] = (), seed: int = 0
    ) -> None:
        self.schedules: Tuple[FaultSchedule, ...] = tuple(schedules)
        self.seed = int(seed)
        for schedule in self.schedules:
            if not isinstance(schedule, _SCHEDULE_TYPES):
                raise TypeError(
                    f"{type(schedule).__name__} is not a fault schedule"
                )
        #: (plan index, schedule) pairs; the index keys each stream
        self._indexed = tuple(enumerate(self.schedules))
        self._kills: Set[int] = {
            s.block for s in self.schedules if isinstance(s, KillSchedule)
        }
        #: explicit events by (kind, block, node), in plan order; a crash
        #: is filed under every block of its window
        self._explicit: Dict[Tuple[str, int, int], List[FaultEvent]] = {}
        for event in self.explicit_events():
            if event.kind == "kill":
                self._kills.add(event.block)
                continue
            span = event.duration if event.kind == "crash" else 1
            for block in range(event.block, event.block + span):
                key = (event.kind, block, event.node_id)
                self._explicit.setdefault(key, []).append(event)

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The empty plan: the subsystem active, no faults injected."""
        return cls((), seed=seed)

    # -- per-cell decisions ---------------------------------------------
    def _hit(
        self, index: int, kind: str, block: int, node: int, rate: float
    ) -> bool:
        # The "fleet-" prefix is historical: the fleet derived its faults
        # from these keys first, and keeping them keeps its runs
        # bit-identical.
        rng = spawn(self.seed, "fleet-fault", index, kind, block, node)
        return bool(rng.random() < rate)

    def crashed(self, block: int, node: int) -> bool:
        """Down this block: a crash started within its ``duration`` window."""
        for index, schedule in self._indexed:
            if isinstance(schedule, CrashSchedule) and any(
                self._hit(index, "crash", start, node, schedule.rate)
                for start in range(
                    max(0, block - schedule.duration + 1), block + 1
                )
            ):
                return True
        return ("crash", block, node) in self._explicit

    def dropped(self, block: int, node: int) -> bool:
        """The node's update for this block is lost in transit."""
        for index, schedule in self._indexed:
            if isinstance(schedule, DropSchedule) and self._hit(
                index, "drop", block, node, schedule.rate
            ):
                return True
        return ("drop", block, node) in self._explicit

    def delay_s(self, block: int, node: int) -> float:
        """Extra simulated delivery seconds: every hit adds its delay."""
        total = 0.0
        for index, schedule in self._indexed:
            if isinstance(schedule, DelaySchedule) and self._hit(
                index, "delay", block, node, schedule.rate
            ):
                total += schedule.delay_s
        for event in self._explicit.get(("delay", block, node), ()):
            total += event.delay_s
        return total

    def corruption(self, block: int, node: int) -> Optional[FaultEvent]:
        """How the node's update is damaged this block, or ``None``.

        The first corrupt schedule in plan order that hits wins; explicit
        events (first listed first) apply only when no schedule hits.
        """
        for index, schedule in self._indexed:
            if isinstance(schedule, CorruptSchedule) and self._hit(
                index, "corrupt", block, node, schedule.rate
            ):
                return FaultEvent(
                    "corrupt",
                    block,
                    node,
                    mode=schedule.mode,
                    fraction=schedule.fraction,
                    scale=schedule.scale,
                )
        explicit = self._explicit.get(("corrupt", block, node))
        return explicit[0] if explicit else None

    def flaky_failures(self, block: int, node: int) -> int:
        """Failures before the node's block succeeds (0: not flaky).

        Overlapping flaky sources take the largest failure count.
        """
        failures = [
            schedule.fail_times
            for index, schedule in self._indexed
            if isinstance(schedule, FlakyWorkerSchedule)
            and self._hit(index, "flaky", block, node, schedule.rate)
        ]
        failures.extend(
            event.fail_times
            for event in self._explicit.get(("flaky", block, node), ())
        )
        return max(failures, default=0)

    def killed_after(self, block: int) -> bool:
        """The run dies at the end of this block."""
        return block in self._kills

    def explicit_events(self) -> Tuple[FaultEvent, ...]:
        """Every event of the plan's explicit schedules, in plan order."""
        return tuple(
            event
            for schedule in self.schedules
            if isinstance(schedule, ExplicitSchedule)
            for event in schedule.fault_events
        )

    def corrupt_params(
        self, params: Params, event: FaultEvent, block: int, node: int
    ) -> Params:
        """A copy of ``params`` damaged as ``event`` says (never in place).

        A partial NaN mask draws from ``(plan seed, "fleet-corrupt", block,
        node)``, so the damage is as reproducible as the decision.
        """
        rng = spawn(self.seed, "fleet-corrupt", block, node)
        out: Params = {}
        for name in sorted(params):
            data = np.array(params[name].data, dtype=np.float64, copy=True)
            if event.mode == "scale":
                data *= event.scale
            elif event.fraction >= 1.0:
                data[...] = np.nan
            else:
                mask = rng.random(data.shape) < event.fraction
                data[mask] = np.nan
            out[name] = Tensor(data)
        return out

    # ------------------------------------------------------------------
    #: spec keys accepted per kind, mapped onto schedule constructor args
    _SPEC_KEYS: Dict[str, Dict[str, Callable[[str], Any]]] = {
        "crash": {"rate": float, "duration": int},
        "drop": {"rate": float},
        "corrupt": {
            "rate": float,
            "mode": str,
            "fraction": float,
            "scale": float,
        },
        "delay": {"rate": float, "delay_s": float},
        "flaky": {"rate": float, "fail_times": int},
        "kill": {"block": int},
    }

    #: typed as schedule factories so ``cls(**kwargs)`` checks statically
    _SPEC_CLASSES: Dict[str, Callable[..., FaultSchedule]] = {
        "crash": CrashSchedule,
        "drop": DropSchedule,
        "corrupt": CorruptSchedule,
        "delay": DelaySchedule,
        "flaky": FlakyWorkerSchedule,
        "kill": KillSchedule,
    }

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Grammar: ``kind:key=value,key=value;kind:...`` — e.g.
        ``"crash:rate=0.2;corrupt:rate=0.1,mode=nan;kill:block=3"``.
        """
        schedules: List[FaultSchedule] = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, arg_text = part.partition(":")
            kind = kind.strip()
            if kind not in cls._SPEC_CLASSES:
                raise ValueError(
                    f"unknown fault kind '{kind}' "
                    f"(expected one of {sorted(cls._SPEC_CLASSES)})"
                )
            allowed = cls._SPEC_KEYS[kind]
            kwargs: Dict[str, Any] = {}
            for pair in filter(None, (p.strip() for p in arg_text.split(","))):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or key not in allowed:
                    raise ValueError(
                        f"bad '{kind}' option '{pair}' "
                        f"(expected {sorted(allowed)})"
                    )
                kwargs[key] = allowed[key](value.strip())
            schedules.append(cls._SPEC_CLASSES[kind](**kwargs))
        return cls(schedules, seed=seed)

    def with_seed(self, seed: int) -> "FaultPlan":
        return FaultPlan(self.schedules, seed=seed)

    def describe(self) -> str:
        if not self.schedules:
            return f"FaultPlan(seed={self.seed}, empty)"
        parts = ", ".join(type(s).__name__ for s in self.schedules)
        return f"FaultPlan(seed={self.seed}, [{parts}])"

    __repr__ = describe
