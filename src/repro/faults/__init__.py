"""Deterministic fault injection and engine resilience.

The paper's operating regime is *edge* deployment — unreliable devices and
links are the norm, not the exception.  This package makes that regime
testable: a seeded :class:`FaultPlan` composes schedules of node crashes,
lost/corrupted/delayed updates and flaky local blocks, and decides
each ``(block, node)`` cell for the engine and the fleet alike; a
:class:`ResiliencePolicy` tells the round engine how to absorb them
(bounded retry, straggler timeout, NaN quarantine, participant floor); and
the :class:`FaultInjector` wires the two into
:class:`~repro.engine.RoundEngine` between local steps and aggregation.

The contract throughout: same seed + same plan ⇒ bit-identical results,
across executors and across checkpoint/resume boundaries.  See
``docs/ENGINE.md`` (integration) and ``docs/TESTING.md`` (chaos suite).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .injector import FaultInjector
    from .plan import (
        FAULT_KINDS,
        CorruptSchedule,
        CrashSchedule,
        DelaySchedule,
        DropSchedule,
        ExplicitSchedule,
        FaultEvent,
        FaultPlan,
        FaultSchedule,
        FlakyWorkerSchedule,
        KillSchedule,
        RunInterrupted,
    )
    from .policy import FaultToleranceError, ResiliencePolicy
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".injector": ("FaultInjector",),
            ".plan": (
                "FAULT_KINDS", "CorruptSchedule", "CrashSchedule",
                "DelaySchedule", "DropSchedule", "ExplicitSchedule",
                "FaultEvent", "FaultPlan", "FaultSchedule",
                "FlakyWorkerSchedule", "KillSchedule", "RunInterrupted",
            ),
            ".policy": ("FaultToleranceError", "ResiliencePolicy"),
        },
    )

__all__ = [
    "FAULT_KINDS",
    "CorruptSchedule",
    "CrashSchedule",
    "DelaySchedule",
    "DropSchedule",
    "ExplicitSchedule",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "FaultToleranceError",
    "FlakyWorkerSchedule",
    "KillSchedule",
    "ResiliencePolicy",
    "RunInterrupted",
]
