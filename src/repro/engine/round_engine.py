"""The one federated round driver every algorithm runs on.

Algorithm 1 of the paper is a *communication pattern* — T0 local steps,
weighted aggregate (eq. 5), broadcast — and it is the same pattern for
FedAvg, FedProx, Reptile, Meta-SGD, ADML and Robust FedML.  The
:class:`RoundEngine` owns that pattern exactly once: node construction,
block scheduling through an :class:`~repro.engine.executors.Executor`,
``t % T0`` aggregation through the :class:`~repro.federated.platform.Platform`,
participation sampling with non-participant resynchronization, the
``eval_every`` cadence, history logging, and the telemetry spans/counters
from the observability layer.  Algorithms contribute only a
:class:`~repro.engine.strategies.LocalStrategy`.

The loop advances in *blocks* (the run of iterations between two
aggregations) rather than single iterations: each node's T0 consecutive
steps commute with other nodes' because nodes are independent between
aggregations, so block execution is bit-identical to the textbook
iteration-major loop — and it is the unit an executor schedules.

Faults and resilience
---------------------
With :class:`EngineOptions` the engine additionally survives injected and
real failures.  A seeded :class:`~repro.faults.plan.FaultPlan` decides —
per ``(block, node)`` cell, as a pure function of
``(plan seed, schedule, kind, block, node)`` — which nodes crash,
which updates are dropped/corrupted/delayed, and which node blocks fail
flakily; a :class:`~repro.faults.policy.ResiliencePolicy` decides how
the engine degrades (bounded retry with simulated backoff, round timeout
on the link clock, NaN quarantine, a minimum-participant floor).  Because
no decision reads wall-clock time or execution order, a faulty run is as
bit-reproducible as a clean one, on either executor.

Checkpoints are written at aggregation boundaries — the only points where
every node holds the broadcast global model, so one parameter tree plus a
JSON header (round counters, engine RNG state, comm totals, history)
captures the whole run.  ``fit(..., resume=True)`` restarts from the last
saved boundary and finishes bit-identically to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..data.dataset import FederatedDataset
from ..faults.injector import FaultInjector, RunInterrupted
from ..faults.plan import FaultPlan
from ..faults.policy import ResiliencePolicy
from ..federated.node import EdgeNode
from ..federated.platform import Platform
from ..federated.sampling import FullParticipation
from ..nn.parameters import Params, detach
from ..obs.telemetry import Telemetry, resolve
from ..utils.checkpoint import load_checkpoint, save_checkpoint
from ..utils.logging import RunLogger
from .executors import Executor, ExecutorError, SerialExecutor

__all__ = ["RoundEngine", "EngineResult", "EngineOptions"]

#: reserved key prefix separating strategy extras from θ in a checkpoint
_EXTRA_PREFIX = "::ckpt::"
_CKPT_VERSION = 1


@dataclass
class EngineResult:
    """Everything a run produces: final model, nodes, platform, history."""

    params: Params
    nodes: List[EdgeNode]
    platform: Platform
    history: RunLogger


@dataclass(frozen=True)
class EngineOptions:
    """Fault, resilience, and checkpoint configuration for one engine.

    All fields default to "off": a default-constructed options object is
    behaviourally identical to passing no options at all.
    """

    #: injected faults; ``None`` ≡ :meth:`FaultPlan.none` (no faults)
    faults: Optional[FaultPlan] = None
    #: how the engine degrades under faults; ``None`` = policy defaults
    resilience: Optional[ResiliencePolicy] = None
    #: where to write checkpoints (and read them back on resume)
    checkpoint_path: Optional[str] = None
    #: checkpoint every this many aggregations (1 = every boundary)
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def _pack_checkpoint_tree(global_params: Params, extras: Params) -> Params:
    merged = dict(global_params)
    for name, tensor in extras.items():
        merged[_EXTRA_PREFIX + name] = tensor
    return merged


def _unpack_checkpoint_tree(tree: Params) -> Tuple[Params, Params]:
    params: Params = {}
    extras: Params = {}
    for name, tensor in tree.items():
        if name.startswith(_EXTRA_PREFIX):
            extras[name[len(_EXTRA_PREFIX):]] = tensor
        else:
            params[name] = tensor
    return params, extras


class RoundEngine:
    """Drives ``strategy`` through the canonical federated round loop."""

    def __init__(
        self,
        strategy: Any,
        platform: Optional[Platform] = None,
        participation: Any = None,
        telemetry: Optional[Telemetry] = None,
        executor: Optional[Executor] = None,
        options: Optional[EngineOptions] = None,
    ) -> None:
        self.strategy = strategy
        self.platform = platform if platform is not None else Platform()
        self.participation = (
            participation if participation is not None else FullParticipation()
        )
        self.telemetry = telemetry
        if telemetry is not None and self.platform.telemetry is None:
            self.platform.telemetry = telemetry
        self.executor = executor if executor is not None else SerialExecutor()
        self.options = options

    # ------------------------------------------------------------------
    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        init_params: Optional[Params] = None,
        verbose: bool = False,
        resume: bool = False,
    ) -> EngineResult:
        """Run the strategy's algorithm and return the learned model.

        With ``resume=True`` (requires ``options.checkpoint_path``), the
        run restarts from the last saved aggregation boundary instead of
        θ⁰ and produces a result bit-identical to an uninterrupted run.
        """
        strategy = self.strategy
        cfg = strategy.config
        name = strategy.name
        opts = self.options
        tel = resolve(self.telemetry)

        injector: Optional[FaultInjector] = None
        resilient = opts is not None and (
            opts.faults is not None or opts.resilience is not None
        )
        if resilient:
            assert opts is not None
            injector = FaultInjector(
                opts.faults, opts.resilience, self.telemetry
            )
        checkpoint_path = opts.checkpoint_path if opts is not None else None
        if resume and checkpoint_path is None:
            raise ValueError(
                "resume=True requires EngineOptions.checkpoint_path"
            )

        rng = np.random.default_rng(cfg.seed)
        nodes = strategy.build_nodes(federated, source_ids)
        for node in nodes:
            strategy.init_node_state(node)

        total = cfg.total_iterations
        num_blocks = (total + cfg.t0 - 1) // cfg.t0
        if injector is not None:
            injector.begin([n.node_id for n in nodes])

        history = RunLogger(
            name=name,
            verbose=verbose,
            registry=self.telemetry.registry if self.telemetry else None,
        )

        events = tel.events
        events.emit(
            "run_start",
            algorithm=name,
            seed=int(cfg.seed),
            nodes=len(nodes),
            t0=int(cfg.t0),
            total_iterations=int(total),
            blocks=int(num_blocks),
            executor=type(self.executor).__name__,
            resumed=bool(resume),
            policy=(
                injector.policy.describe() if injector is not None else None
            ),
        )

        if resume:
            assert checkpoint_path is not None
            t, aggregations = self._restore(
                checkpoint_path, strategy, nodes, rng, history, injector
            )
        else:
            params = strategy.initial_params(rng, init_params)
            self.platform.initialize(params, nodes)
            strategy.begin_fit(self.platform.global_params, nodes)
            t, aggregations = 0, 0
            if strategy.log_initial:
                initial = strategy.evaluate(self.platform.global_params, nodes)
                if strategy.log_uplink:
                    initial["uplink_bytes"] = 0
                history.log(0, **initial)

        rounds_total = tel.counter("fl_rounds_total", algorithm=name)
        steps_total = tel.counter("fl_local_steps_total", algorithm=name)
        fit_span = tel.span("fit", algorithm=name)
        round_span = tel.span("round")
        while t < total:
            block = t // cfg.t0
            # One block: every node runs up to the next aggregation point
            # (or to T, when T is not a multiple of T0).
            boundary = min(total, (block + 1) * cfg.t0)
            steps = boundary - t
            events.emit("round_start", block=block, t=t, steps=steps)

            stale_ids: Set[int] = set()
            backoff: Dict[int, float] = {}
            runnable: List[EdgeNode] = list(nodes)
            if injector is not None:
                crashed = injector.crashed(block)
                runnable = [n for n in nodes if n.node_id not in crashed]
                flaky_failed, backoff = injector.simulate_flaky(
                    block, [n.node_id for n in runnable]
                )
                runnable = [
                    n for n in runnable if n.node_id not in flaky_failed
                ]
                stale_ids = crashed | flaky_failed

            with tel.span("local_steps"):
                if runnable:
                    failed_ids = self._run_local_block(
                        strategy, runnable, steps, block, cfg.seed,
                        injector, backoff,
                    )
                    stale_ids |= failed_ids
                steps_total.inc(
                    sum(1 for n in runnable if n.node_id not in stale_ids)
                    * steps
                )
            t = boundary
            if t % cfg.t0 == 0:
                with tel.span("aggregate"):
                    participating = self.participation.select(
                        nodes, t // cfg.t0
                    )
                    if injector is not None:
                        participating = injector.filter_updates(
                            block,
                            participating,
                            stale_ids,
                            steps,
                            extra_delay_s=backoff,
                        )
                    # Keyed by node_id (stable across processes), never id().
                    participating_ids = {
                        node.node_id for node in participating
                    }
                    aggregated = self.platform.aggregate(participating)  # reprolint: disable=ENG001
                    # Nodes outside the participating set resynchronize too —
                    # the paper broadcasts theta^{t+1} to all of S.
                    for node in nodes:
                        if node.node_id not in participating_ids:
                            node.params = detach(aggregated)
                strategy.on_aggregate(aggregated, nodes)
                aggregations += 1
                rounds_total.inc()
                if aggregations % cfg.eval_every == 0:
                    with tel.span("evaluate"):
                        metrics: Dict[str, float] = strategy.evaluate(
                            aggregated, nodes
                        )
                        if strategy.log_uplink:
                            metrics["uplink_bytes"] = (
                                self.platform.comm_log.uplink_bytes
                            )
                        history.log(t, **metrics)
                events.emit(
                    "round_end", block=block, t=t,
                    participants=len(participating),
                )
                round_span.end()
                if t < total:
                    round_span = tel.span("round")
            strategy.on_block_end(t, nodes, rng, tel)
            # Checkpoint after on_block_end: the saved RNG state must
            # include the draws made at this boundary (e.g. adversarial
            # generation) or the resumed run would replay them.
            if (
                checkpoint_path is not None
                and opts is not None
                and t % cfg.t0 == 0
                and aggregations % opts.checkpoint_every == 0
            ):
                self._save(
                    checkpoint_path, strategy, nodes, rng, history,
                    injector, t, aggregations,
                )
            if injector is not None and injector.plan.killed_after(block):
                raise RunInterrupted(t, block, checkpoint_path)
        # The loop only evaluates on the eval_every cadence, so when the run
        # ends between evaluation points (rounds % eval_every != 0) the last
        # aggregation's metrics would never reach the history.  Always log
        # the final state — unless it is already logged (divisible cadence,
        # or a completed run re-entered through resume).
        if aggregations and aggregations % cfg.eval_every != 0:
            final_step = aggregations * cfg.t0
            logged = history.steps()
            if not logged or logged[-1] != final_step:
                with tel.span("evaluate"):
                    final_params = self.platform.global_params
                    assert final_params is not None
                    final_metrics: Dict[str, float] = strategy.evaluate(
                        final_params, nodes
                    )
                    if strategy.log_uplink:
                        final_metrics["uplink_bytes"] = (
                            self.platform.comm_log.uplink_bytes
                        )
                    history.log(final_step, **final_metrics)
        round_span.end()
        fit_span.end()
        events.emit(
            "run_end",
            t=int(t),
            aggregations=int(aggregations),
            uplink_bytes=int(self.platform.comm_log.uplink_bytes),
            downlink_bytes=int(self.platform.comm_log.downlink_bytes),
        )

        final = self.platform.global_params
        if final is None:  # T < T0: no aggregation happened; average manually
            final = self.platform.aggregate(nodes)  # reprolint: disable=ENG001
        return EngineResult(
            params=detach(final),
            nodes=nodes,
            platform=self.platform,
            history=history,
        )

    # ------------------------------------------------------------------
    def _run_local_block(
        self,
        strategy: Any,
        runnable: List[EdgeNode],
        steps: int,
        block: int,
        base_seed: int,
        injector: Optional[FaultInjector],
        backoff: Dict[int, float],
    ) -> Set[int]:
        """Run one block, retrying real executor failures when resilient.

        Returns node ids whose block was permanently lost (retries
        exhausted under ``drop_on_failure``); they are treated as stale.
        A failed attempt restores *every* pending node from its pre-block
        snapshot and re-runs the whole set — re-execution is bit-identical
        because the executors re-bind the same per-node RNG streams.
        """
        if injector is None:
            self.executor.run_block(
                strategy, runnable, steps,
                block_index=block, base_seed=base_seed,
                telemetry=self.telemetry,
            )
            return set()

        policy = injector.policy
        snapshot = {
            n.node_id: (
                detach(n.params) if n.params is not None else None,
                n.local_steps,
                n.gradient_evaluations,
            )
            for n in runnable
        }
        pending = list(runnable)
        failed_ids: Set[int] = set()
        attempt = 0
        while pending:
            try:
                self.executor.run_block(
                    strategy, pending, steps,
                    block_index=block, base_seed=base_seed,
                    telemetry=self.telemetry,
                )
                return failed_ids
            except ExecutorError as exc:
                for node in pending:
                    saved_params, local_steps, gradient_evals = snapshot[
                        node.node_id
                    ]
                    node.params = (
                        detach(saved_params)
                        if saved_params is not None
                        else None
                    )
                    node.local_steps = local_steps
                    node.gradient_evaluations = gradient_evals
                if attempt < policy.max_retries:
                    injector.record_retry(block=block, node=exc.node_id)
                    # Backoff is simulated on the link clock, charged to
                    # the failing node's delivery time — never a sleep.
                    backoff[exc.node_id] = (
                        backoff.get(exc.node_id, 0.0)
                        + policy.backoff_s(attempt)
                    )
                    attempt += 1
                    continue
                if not policy.drop_on_failure:
                    raise
                failed_ids.add(exc.node_id)
                pending = [
                    n for n in pending if n.node_id != exc.node_id
                ]
                attempt = 0
        return failed_ids

    # ------------------------------------------------------------------
    def _save(
        self,
        path: str,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        rng: np.random.Generator,
        history: RunLogger,
        injector: Optional[FaultInjector],
        t: int,
        aggregations: int,
    ) -> None:
        global_params = self.platform.global_params
        assert global_params is not None  # only called after an aggregation
        tree = _pack_checkpoint_tree(
            detach(global_params), strategy.checkpoint_extras(nodes)
        )
        state = {
            "version": _CKPT_VERSION,
            "algorithm": strategy.name,
            "seed": int(strategy.config.seed),
            "t": int(t),
            "iteration": int(t),
            "aggregations": int(aggregations),
            "rounds_completed": int(self.platform.rounds_completed),
            "uplink_bytes": int(self.platform.comm_log.uplink_bytes),
            "downlink_bytes": int(self.platform.comm_log.downlink_bytes),
            "sim_clock_s": injector.sim_clock_s if injector else 0.0,
            "rng_state": rng.bit_generator.state,
            "node_counters": {
                str(n.node_id): [n.local_steps, n.gradient_evaluations]
                for n in nodes
            },
            "history": history.records,
            "strategy": strategy.checkpoint_state(nodes),
        }
        save_checkpoint(path, tree, state)
        saver = resolve(self.telemetry)
        saver.counter("fl_checkpoints_total").inc()
        saver.events.emit(
            "checkpoint", t=int(t), aggregations=int(aggregations), path=path
        )

    def _restore(
        self,
        path: str,
        strategy: Any,
        nodes: Sequence[EdgeNode],
        rng: np.random.Generator,
        history: RunLogger,
        injector: Optional[FaultInjector],
    ) -> Tuple[int, int]:
        checkpoint = load_checkpoint(path)
        state = checkpoint.state
        if state.get("algorithm") != strategy.name:
            raise ValueError(
                f"checkpoint is for algorithm '{state.get('algorithm')}', "
                f"not '{strategy.name}'"
            )
        if int(state.get("seed", -1)) != int(strategy.config.seed):
            raise ValueError(
                f"checkpoint seed {state.get('seed')} does not match "
                f"config seed {strategy.config.seed}"
            )
        global_params, extras = _unpack_checkpoint_tree(checkpoint.params)
        rng.bit_generator.state = state["rng_state"]
        self.platform.restore(
            global_params,
            nodes,
            rounds_completed=int(state["rounds_completed"]),
            uplink_bytes=int(state["uplink_bytes"]),
            downlink_bytes=int(state["downlink_bytes"]),
        )
        # begin_fit rebuilds anchor-style state from the restored global
        # model (exactly what the uninterrupted run's last aggregation
        # left behind); restore_state/extras reinstate the rest.
        strategy.begin_fit(self.platform.global_params, nodes)
        strategy.restore_state(state.get("strategy", {}), nodes)
        strategy.restore_extras(extras, nodes)
        counters = state.get("node_counters", {})
        for node in nodes:
            local_steps, gradient_evals = counters.get(
                str(node.node_id), [0, 0]
            )
            node.local_steps = int(local_steps)
            node.gradient_evaluations = int(gradient_evals)
        history.load_records(state.get("history", []))
        if injector is not None:
            injector.sim_clock_s = float(state.get("sim_clock_s", 0.0))
        restorer = resolve(self.telemetry)
        restorer.counter("fl_resumes_total").inc()
        restorer.events.emit(
            "resume",
            t=int(state["t"]),
            aggregations=int(state["aggregations"]),
            path=path,
        )
        return int(state["t"]), int(state["aggregations"])
