"""Engine-side resilience knobs.

A :class:`ResiliencePolicy` tells the :class:`~repro.engine.RoundEngine`
how to survive the faults a :class:`~repro.faults.plan.FaultPlan` (or a
genuinely failing strategy/executor) throws at it:

* **bounded retry with backoff** — a node block that fails is
  restored from its pre-block snapshot and re-run, up to ``max_retries``
  times; each retry charges ``backoff_base_s * 2**attempt`` *simulated*
  seconds to the node's block time (never a real sleep — wall-clock
  decisions would break determinism);
* **round timeout / straggler drop** — each node's block is costed on the
  :class:`~repro.federated.network.LinkModel` clock
  (``steps * seconds_per_step + upload_time(payload) + delays + backoff``)
  and nodes exceeding ``round_timeout_s`` are excluded from aggregation
  and resynchronized, keeping at least the ``min_participants`` fastest;
* **NaN-update quarantine** — non-finite updates never reach the
  aggregator; the quarantined node is resynchronized from the healthy
  global model at broadcast;
* **minimum-participant floor** — if exclusions would leave fewer than
  ``min_participants`` updates, excluded-but-finite nodes are reinstated
  in a deterministic preference order (stragglers, then dropped updates,
  then stale crashed/failed nodes); quarantined updates are never
  reinstated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..federated.network import LinkModel

__all__ = ["ResiliencePolicy", "FaultToleranceError"]


class FaultToleranceError(RuntimeError):
    """Raised when a round cannot assemble a usable participant set."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the round engine degrades gracefully under faults."""

    #: simulated deadline for one block (compute + upload); ``None`` = none
    round_timeout_s: float | None = None
    #: bounded retry budget per node block before the block is failed
    max_retries: int = 2
    #: simulated backoff charged per retry: ``backoff_base_s * 2**attempt``
    backoff_base_s: float = 0.5
    #: aggregation floor: never aggregate fewer updates than this
    min_participants: int = 1
    #: exclude non-finite updates from aggregation
    quarantine_nonfinite: bool = True
    #: drop a node's block (instead of raising) when retries are exhausted
    #: by a *real* executor error; plan-injected flaky faults always drop
    drop_on_failure: bool = False
    #: simulated compute speed used to cost a block on the link clock
    seconds_per_step: float = 0.05
    #: link model whose upload time prices the update delivery
    link: LinkModel = field(default_factory=LinkModel)

    def __post_init__(self) -> None:
        if self.round_timeout_s is not None and self.round_timeout_s <= 0:
            raise ValueError("round_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be non-negative")
        if self.min_participants < 1:
            raise ValueError("min_participants must be >= 1")
        if self.seconds_per_step <= 0:
            raise ValueError("seconds_per_step must be positive")

    def backoff_s(self, attempt: int) -> float:
        """Simulated backoff before retry ``attempt`` (0-indexed)."""
        return self.backoff_base_s * (2.0**attempt)

    def describe(self) -> dict:
        """JSON-ready summary for the run's ``run_start`` event."""
        return {
            "round_timeout_s": self.round_timeout_s,
            "max_retries": self.max_retries,
            "backoff_base_s": self.backoff_base_s,
            "min_participants": self.min_participants,
            "quarantine_nonfinite": self.quarantine_nonfinite,
            "drop_on_failure": self.drop_on_failure,
        }
