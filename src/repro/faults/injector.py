"""The engine's single integration point with the fault subsystem.

A :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan` to a
:class:`~repro.faults.policy.ResiliencePolicy` and a telemetry collector.
The :class:`~repro.engine.round_engine.RoundEngine` consults it at two
points per block:

1. **before local steps** — which nodes are crashed (skip their block) and
   which node blocks fail flakily (charge bounded retries, or fail the block
   when the retry budget is exhausted);
2. **between local steps and aggregation** — which updates are dropped,
   corrupted, or delayed; which are straggler-dropped by the policy's
   round timeout on the :class:`~repro.federated.network.LinkModel` clock;
   which are quarantined for non-finite values; and how the
   minimum-participant floor backfills the survivor set.

The plan makes every fault decision, each a pure function of
``(plan seed, schedule, kind, block, node)``; the injector only applies the
engine's policy to them.  It never looks at wall-clock time or execution
order, which is what keeps faulty runs bit-identical across reruns and
across checkpoint/resume boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..federated.node import EdgeNode
from ..obs.telemetry import Telemetry, resolve
from ..utils.serialization import payload_bytes
from .plan import FaultPlan, RunInterrupted, record_fault
from .policy import FaultToleranceError, ResiliencePolicy

__all__ = ["FaultInjector", "RunInterrupted", "record_fault"]


class FaultInjector:
    """Applies one run's fault plan under one resilience policy."""

    def __init__(
        self,
        plan: Optional[FaultPlan],
        policy: Optional[ResiliencePolicy] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        self.policy = policy if policy is not None else ResiliencePolicy()
        self._tel = resolve(telemetry)
        self._node_ids: Tuple[int, ...] = ()
        #: simulated run clock (seconds) accumulated over blocks
        self.sim_clock_s = 0.0

    # -- lifecycle ------------------------------------------------------
    def begin(self, node_ids: Sequence[int]) -> None:
        """Bind the run's node ids and pre-register the counters.

        Raises ``ValueError`` if an explicit event targets a node outside
        ``node_ids`` — such an event could never fire.
        """
        self._node_ids = tuple(sorted(node_ids))
        unknown = {
            event.node_id
            for event in self.plan.explicit_events()
            if event.kind != "kill"
        }.difference(node_ids)
        if unknown:
            raise ValueError(
                f"fault event targets unknown node {min(unknown)}"
            )
        for kind in ("crash", "drop", "corrupt", "delay", "flaky"):
            self._tel.counter("fl_faults_total", kind=kind)
        self._tel.counter("fl_retries_total")
        self._tel.counter("fl_quarantined_total")
        self._tel.counter("fl_stragglers_dropped_total")

    # -- retries (shared with the engine's real-failure path) -----------
    def record_retry(
        self,
        amount: int = 1,
        *,
        block: Optional[int] = None,
        node: Optional[int] = None,
    ) -> None:
        self._tel.counter("fl_retries_total").inc(amount)
        if block is not None:
            self._tel.events.emit(
                "retry", block=block, node=node, count=amount
            )

    # -- before local steps ---------------------------------------------
    def crashed(self, block: int) -> Set[int]:
        """Node ids down for this block (counted once per node-block)."""
        downed: Set[int] = set()
        for node_id in self._node_ids:
            if self.plan.crashed(block, node_id):
                record_fault(self._tel, "crash", block, node_id)
                downed.add(node_id)
        return downed

    def simulate_flaky(
        self, block: int, node_ids: Iterable[int]
    ) -> Tuple[Set[int], Dict[int, float]]:
        """Resolve plan-injected block flakiness for this block.

        Returns ``(failed, backoff_s)``: nodes whose retry budget the
        failure count exhausts (their block is lost), and the simulated
        backoff seconds charged to each flaky-but-recovered node.
        """
        failed: Set[int] = set()
        backoff: Dict[int, float] = {}
        for node_id in sorted(node_ids):
            fail_times = self.plan.flaky_failures(block, node_id)
            if fail_times == 0:
                continue
            record_fault(self._tel, "flaky", block, node_id)
            retries = min(fail_times, self.policy.max_retries)
            if retries:
                self.record_retry(retries, block=block, node=node_id)
                backoff[node_id] = sum(
                    self.policy.backoff_s(a) for a in range(retries)
                )
            if fail_times > self.policy.max_retries:
                failed.add(node_id)
        return failed, backoff

    # -- between local steps and aggregation ----------------------------
    def filter_updates(
        self,
        block: int,
        selected: Sequence[EdgeNode],
        stale_ids: Set[int],
        steps: int,
        extra_delay_s: Optional[Dict[int, float]] = None,
    ) -> List[EdgeNode]:
        """Decide which of the ``selected`` updates reach the aggregator.

        ``stale_ids`` are nodes that never computed this block (crashed, or
        their block failed permanently) — they carry last round's params
        and are only used as a last resort by the participant floor.
        """
        delays = dict(extra_delay_s or {})
        available: List[EdgeNode] = []
        dropped: List[EdgeNode] = []
        stale = [n for n in selected if n.node_id in stale_ids]
        plan = self.plan
        for node in selected:
            node_id = node.node_id
            if node_id in stale_ids:
                continue
            if plan.dropped(block, node_id):
                record_fault(self._tel, "drop", block, node_id)
                dropped.append(node)
                continue
            corrupt = plan.corruption(block, node_id)
            if corrupt is not None and node.params is not None:
                node.params = plan.corrupt_params(
                    node.params, corrupt, block, node_id
                )
                record_fault(self._tel, "corrupt", block, node_id)
            plan_delay = plan.delay_s(block, node_id)
            if plan_delay:
                record_fault(self._tel, "delay", block, node_id)
                delays[node_id] = delays.get(node_id, 0.0) + plan_delay
            available.append(node)

        kept, stragglers = self._apply_timeout(available, delays, steps)
        events = self._tel.events
        for node in stragglers:
            events.emit("straggler_dropped", block=block, node=node.node_id)
        kept, quarantined = self._quarantine(kept)
        for node in quarantined:
            events.emit("quarantine", block=block, node=node.node_id)
        kept = self._enforce_floor(kept, stragglers, dropped, stale)
        if not kept:
            raise FaultToleranceError(
                f"block {block}: no usable updates remain "
                f"({len(quarantined)} quarantined, {len(stale)} stale)"
            )
        return kept

    # ------------------------------------------------------------------
    def _block_time_s(
        self, node: EdgeNode, delays: Dict[int, float], steps: int
    ) -> float:
        """Cost one node's block on the policy's LinkModel clock."""
        policy = self.policy
        upload = 0.0
        if node.params is not None:
            upload = policy.link.upload_time(payload_bytes(node.params))
        return (
            steps * policy.seconds_per_step
            + upload
            + delays.get(node.node_id, 0.0)
        )

    def _apply_timeout(
        self,
        available: List[EdgeNode],
        delays: Dict[int, float],
        steps: int,
    ) -> Tuple[List[EdgeNode], List[EdgeNode]]:
        policy = self.policy
        if policy.round_timeout_s is None or not available:
            return available, []
        times = {
            n.node_id: self._block_time_s(n, delays, steps)
            for n in available
        }
        kept = [
            n for n in available if times[n.node_id] <= policy.round_timeout_s
        ]
        if len(kept) < policy.min_participants:
            # Keep the fastest nodes even past the deadline (ties broken by
            # node id, so the choice is deterministic).
            ordered = sorted(
                available, key=lambda n: (times[n.node_id], n.node_id)
            )
            kept = sorted(
                ordered[: policy.min_participants], key=lambda n: n.node_id
            )
        kept_ids = {n.node_id for n in kept}
        stragglers = [n for n in available if n.node_id not in kept_ids]
        if stragglers:
            self._tel.counter("fl_stragglers_dropped_total").inc(
                len(stragglers)
            )
        round_time = max(times[n.node_id] for n in kept)
        self.sim_clock_s += round_time
        self._tel.gauge("fl_sim_clock_seconds").set(self.sim_clock_s)
        return kept, stragglers

    def _quarantine(
        self, kept: List[EdgeNode]
    ) -> Tuple[List[EdgeNode], List[EdgeNode]]:
        if not self.policy.quarantine_nonfinite:
            return kept, []
        healthy: List[EdgeNode] = []
        quarantined: List[EdgeNode] = []
        for node in kept:
            params = node.params
            finite = params is not None and all(
                np.isfinite(t.data).all() for t in params.values()
            )
            (healthy if finite else quarantined).append(node)
        if quarantined:
            self._tel.counter("fl_quarantined_total").inc(len(quarantined))
        return healthy, quarantined

    def _enforce_floor(
        self,
        kept: List[EdgeNode],
        stragglers: List[EdgeNode],
        dropped: List[EdgeNode],
        stale: List[EdgeNode],
    ) -> List[EdgeNode]:
        """Backfill to ``min_participants`` from excluded-but-finite nodes.

        Preference order: straggler updates (computed, merely late), then
        dropped updates (computed, lost in transit — we pretend the
        retransmit succeeded), then stale nodes (last broadcast's params).
        Quarantined updates are never reinstated.
        """
        floor = self.policy.min_participants
        if len(kept) >= floor:
            return kept
        reinstated = list(kept)
        for pool in (stragglers, dropped, stale):
            for node in sorted(pool, key=lambda n: n.node_id):
                if len(reinstated) >= floor:
                    break
                params = node.params
                finite = params is not None and all(
                    np.isfinite(t.data).all() for t in params.values()
                )
                if finite:
                    reinstated.append(node)
        return reinstated
