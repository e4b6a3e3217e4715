"""Event-driven fleet simulator: millions of registered nodes, O(sampled) RSS.

The paper's experiments top out at 706 Sent140 nodes, and the eager
:class:`~repro.engine.round_engine.RoundEngine` loop materializes every
node's data shard and parameter tree up front — memory and per-round work
are both O(fleet).  Real cross-device federations (FedBuff, FedML-at-scale)
are the opposite regime: *millions* of registered devices of which a few
hundred participate per round.  This module serves that regime:

:class:`FleetRegistry`
    Lazy node store.  A node is a *spec* — ``(node_id, shard seed)`` — until
    it is sampled; :meth:`~FleetRegistry.materialize` builds its data shard
    and model state on demand and :meth:`~FleetRegistry.evict` drops them
    the moment its update has been consumed, so resident state is bounded
    by the in-flight set, never the fleet.  The ``fl_fleet_resident_nodes``
    gauge (and its ``_peak`` high-water twin) make the bound observable.

:class:`FleetSimulator`
    A priority-queue scheduler over the :class:`~.network.LinkModel` clock.
    Each round samples ids directly from the id space
    (:class:`~.sampling.IdSpaceSampler` — O(sampled), never an O(fleet)
    scan), dispatches them against the current global model, and processes
    ``completion``/``timeout`` events in simulated-time order.  Heap keys
    are ``(time, kind rank, node_id)`` — a total order independent of
    insertion order, so the event schedule is a pure function of the seed.
    Local training happens when a node's completion event is *popped*:
    materialize, run ``local_steps`` through the strategy's ``local_step``
    with the standard ``[seed, round, node]`` RNG stream, hand the update
    to the aggregator, evict.

:class:`BufferedAggregator`
    FedBuff-style buffered aggregation.  Updates accumulate in a
    fixed-size buffer; each flush advances the server version, so updates
    still in flight (or still buffered) grow *stale*.  A flush corrects
    entry ``i`` onto the current model with a staleness discount::

        τ_i   = version_now − version_dispatched
        d(τ)  = (1 + τ)^(−α)
        θ̃_i  = θ_i                         if τ_i = 0  (exact pass-through)
              = θ_cur + d(τ_i)·(θ_i − θ_base_i)   otherwise
        θ_new = Σ ŵ_i · θ̃_i               (ŵ = renormalized data weights)

    Because zero-staleness entries pass through *without arithmetic*, a
    buffered run in which every update lands fresh — and the synchronous
    mode, which is exactly that — reduces **bit-for-bit** to FedAvg's
    weighted mean over the same sample sequence.

Faults ride along through the same :class:`~repro.faults.plan.FaultPlan`
methods the engine asks, so one plan yields the same faults on both paths:
each decision is a pure function of ``(plan seed, schedule, kind, round,
node)`` at O(1) per sampled node, never a table over the fleet.  The fleet
applies its own policy to them: crashed nodes are never dispatched,
delays count against the round timeout, NaN updates are quarantined
before the buffer.  Checkpoints round-trip the global model, the
pending event queue, and the aggregation buffer — including the base
models stale entries are anchored to — so kill-and-resume is bit-equal to
an uninterrupted run.  All of it is proven by the property/chaos layer in
``tests/federated/test_fleet_properties.py`` and
``tests/faults/test_fleet_chaos.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import Tensor
from ..data.dataset import Dataset, NodeSplit
from ..faults.injector import RunInterrupted, record_fault
from ..faults.plan import FaultPlan
from ..nn.batched import stack_params
from ..nn.parameters import Params, detach
from ..obs.telemetry import Telemetry, resolve
from ..utils.checkpoint import load_checkpoint, save_checkpoint
from ..utils.logging import RunLogger
from ..utils.rng import instrument_node_rng, spawn
from ..utils.serialization import payload_bytes
from .aggregation import normalized_weights, weighted_mean
from .network import CommunicationLog, LinkModel
from .node import EdgeNode
from .sampling import IdSpaceSampler, sample_id_space

__all__ = [
    "FleetConfig",
    "FleetResult",
    "FleetRegistry",
    "ShardFactory",
    "SyntheticShardFactory",
    "BufferEntry",
    "BufferedAggregator",
    "FleetSimulator",
]

#: staleness histogram bucket edges (rounds of lag, not seconds)
_STALENESS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: heap-key rank per event kind: completions before timeouts at equal time
_EVENT_RANK = {"completion": 0, "timeout": 1}

#: checkpoint tree prefixes for buffer entries and their base models
_BUF_PREFIX = "::fleet::buf::"
_VER_PREFIX = "::fleet::ver::"
_FLEET_CKPT_VERSION = 1


# ----------------------------------------------------------------------
# Lazy node specs
# ----------------------------------------------------------------------
class ShardFactory:
    """Protocol: deterministic, on-demand construction of a node's shard.

    ``num_samples`` must be derivable without building the shard (it feeds
    aggregation weights for nodes that are never materialized), and
    ``make`` must be a pure function of ``node_id`` — rematerializing a
    node must yield a bit-identical shard.
    """

    #: K-shot split applied when a node is materialized
    k: int = 2

    def num_samples(self, node_id: int) -> int:
        raise NotImplementedError

    def make(self, node_id: int) -> Dataset:
        raise NotImplementedError


@dataclass(frozen=True)
class SyntheticShardFactory(ShardFactory):
    """FedProx-style Synthetic(α̃, β̃) shards, one seeded stream per node.

    The per-node generator body mirrors :func:`~repro.data.synthetic
    .generate_synthetic`, but nothing is generated until a node is
    sampled: shard content draws from ``(seed, "fleet-shard", node_id)``
    and the sample count from ``(seed, "fleet-size", node_id)``, so any of
    a million nodes can be built — and rebuilt, bit-identically — in
    isolation.
    """

    input_dim: int = 16
    num_classes: int = 4
    min_samples: int = 12
    max_samples: int = 28
    alpha: float = 0.5
    beta: float = 0.5
    k: int = 4
    seed: int = 0

    def num_samples(self, node_id: int) -> int:
        rng = spawn(self.seed, "fleet-size", node_id)
        return int(rng.integers(self.min_samples, self.max_samples + 1))

    def make(self, node_id: int) -> Dataset:
        count = self.num_samples(node_id)
        rng = spawn(self.seed, "fleet-shard", node_id)
        u = rng.normal(0.0, np.sqrt(self.alpha)) if self.alpha > 0 else 0.0
        w = rng.normal(u, 1.0, size=(self.num_classes, self.input_dim))
        b = rng.normal(u, 1.0, size=self.num_classes)
        big_b = rng.normal(0.0, np.sqrt(self.beta)) if self.beta > 0 else 0.0
        v = rng.normal(big_b, 1.0, size=self.input_dim)
        std = np.sqrt(
            np.arange(1, self.input_dim + 1, dtype=np.float64) ** (-1.2)
        )
        x = rng.normal(v, std, size=(count, self.input_dim))
        y = np.argmax(x @ w.T + b, axis=1)
        return Dataset(x=x, y=y.astype(np.int64))


class FleetRegistry:
    """Materializes and evicts nodes on demand; tracks the resident set.

    The registry never holds per-node objects for unsampled ids — a node
    costs memory only between :meth:`materialize` and :meth:`evict`.  The
    ``fl_fleet_resident_nodes`` gauge tracks the live count and
    ``fl_fleet_resident_nodes_peak`` its high-water mark, which the
    memory-bound regression test pins to ``sampled + buffer``.
    """

    def __init__(
        self,
        fleet_size: int,
        shards: ShardFactory,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        self.fleet_size = int(fleet_size)
        self.shards = shards
        self._tel = resolve(telemetry)
        self._resident: Dict[int, EdgeNode] = {}
        self.resident_peak = 0
        self.materializations = 0
        self._tel.gauge("fl_fleet_registered").set(self.fleet_size)

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def weight(self, node_id: int) -> float:
        """Aggregation weight ω_i ∝ |D_i| without materializing the shard."""
        return float(self.shards.num_samples(node_id))

    def materialize(
        self, node_id: int, params: Optional[Params] = None
    ) -> EdgeNode:
        """Build (or fetch) the node's shard + state; install ``params``."""
        if not 0 <= node_id < self.fleet_size:
            raise ValueError(
                f"node {node_id} outside fleet [0, {self.fleet_size})"
            )
        node = self._resident.get(node_id)
        if node is None:
            data = self.shards.make(node_id)
            k = max(1, min(self.shards.k, len(data) - 1))
            train, test = data.split(k)
            node = EdgeNode(
                node_id=node_id,
                split=NodeSplit(train=train, test=test),
                weight=float(len(data)),
            )
            self._resident[node_id] = node
            self.materializations += 1
            count = len(self._resident)
            self._tel.gauge("fl_fleet_resident_nodes").set(count)
            if count > self.resident_peak:
                self.resident_peak = count
                self._tel.gauge("fl_fleet_resident_nodes_peak").set(count)
        if params is not None:
            node.params = detach(params)
        return node

    def evict(self, node_id: int, strategy: Any = None) -> None:
        """Drop the node's materialized state (and any strategy caches)."""
        node = self._resident.pop(node_id, None)
        if node is None:
            return
        if strategy is not None and hasattr(strategy, "release_node"):
            strategy.release_node(node)
        self._tel.counter("fl_fleet_evictions_total").inc()
        self._tel.gauge("fl_fleet_resident_nodes").set(len(self._resident))


# ----------------------------------------------------------------------
# Staleness-aware buffered aggregation
# ----------------------------------------------------------------------
@dataclass
class BufferEntry:
    """One delivered update waiting in the aggregation buffer."""

    node_id: int
    weight: float
    base_version: int
    params: Params


class BufferedAggregator:
    """Fixed-capacity update buffer with staleness-discounted flushes.

    See the module docstring for the flush rule.  Entries are sorted by
    ``node_id`` before averaging so the reduction is canonical regardless
    of delivery order; *which* entries share a flush is still determined
    by completion order, which is itself deterministic.
    """

    def __init__(self, capacity: int, staleness_alpha: float = 0.5) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")
        self.capacity = int(capacity)
        self.staleness_alpha = float(staleness_alpha)
        self.entries: List[BufferEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: BufferEntry) -> bool:
        """Buffer one update; returns True when the buffer is now full."""
        self.entries.append(entry)
        return len(self.entries) >= self.capacity

    def discount(self, staleness: int) -> float:
        if staleness <= 0:
            return 1.0
        return float((1.0 + staleness) ** (-self.staleness_alpha))

    def flush(
        self,
        current: Params,
        version: int,
        base_of: Dict[int, Params],
    ) -> Tuple[Params, List[Dict[str, Any]]]:
        """Aggregate and clear the buffer; returns ``(θ_new, entry stats)``.

        ``base_of`` must map every ``base_version`` present in the buffer
        to the global model that version broadcast (the simulator's
        version store retains exactly those).
        """
        if not self.entries:
            raise ValueError("cannot flush an empty buffer")
        ordered = sorted(self.entries, key=lambda e: e.node_id)
        weights = normalized_weights([e.weight for e in ordered])
        corrected: List[Params] = []
        stats: List[Dict[str, Any]] = []
        for entry in ordered:
            staleness = version - entry.base_version
            d = self.discount(staleness)
            if staleness == 0:
                # Exact pass-through: the zero-staleness flush is
                # bit-identical to synchronous FedAvg's weighted mean.
                corrected.append(entry.params)
            else:
                base = base_of[entry.base_version]
                corrected.append(
                    {
                        name: Tensor(
                            current[name].data
                            + d * (entry.params[name].data - base[name].data)
                        )
                        for name in current
                    }
                )
            stats.append(
                {
                    "node": entry.node_id,
                    "staleness": staleness,
                    "discount": d,
                    "base_version": entry.base_version,
                }
            )
        merged = weighted_mean(stack_params(corrected), weights)
        self.entries = []
        return merged, stats


class _VersionStore:
    """Refcounted store of the global models in-flight work is anchored to."""

    def __init__(self) -> None:
        self._trees: Dict[int, Params] = {}
        self._refs: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._trees)

    def retain(self, version: int, params: Params) -> None:
        if version not in self._trees:
            self._trees[version] = detach(params)
            self._refs[version] = 0
        self._refs[version] += 1

    def release(self, version: int) -> None:
        refs = self._refs.get(version)
        if refs is None:
            raise KeyError(f"version {version} not retained")
        if refs <= 1:
            del self._refs[version]
            del self._trees[version]
        else:
            self._refs[version] = refs - 1

    def get(self, version: int) -> Params:
        return self._trees[version]

    def snapshot(self) -> Dict[int, Params]:
        return dict(self._trees)

    def refcounts(self) -> Dict[int, int]:
        """Live refcount per retained version (for checkpointing).

        These are the counts that must survive a save/resume round-trip:
        one per in-flight dispatch *plus* one per buffered update anchored
        to the version.  Recomputing them from the buffer alone (as the
        checkpoint writer once did) undercounts versions held only by
        pending events, orphaning them on resume.
        """
        return dict(self._refs)

    def check_invariant(self) -> None:
        """Every retained version has a tree, and vice versa."""
        if self._refs.keys() != self._trees.keys():
            raise AssertionError(
                f"version store invariant violated: refs for "
                f"{sorted(self._refs)} vs trees for {sorted(self._trees)}"
            )
        if any(r <= 0 for r in self._refs.values()):
            raise AssertionError(
                f"version store holds non-positive refcounts: {self._refs}"
            )


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one fleet run.

    ``buffer_size=None`` selects the synchronous mode: one flush per round
    covering every delivered update (classic FedAvg on the sampled
    subset).  Any smaller ``buffer_size`` selects buffered (FedBuff-style)
    aggregation: flush every ``buffer_size`` deliveries, carrying partial
    buffers across rounds, with staleness discounts governed by
    ``staleness_alpha`` (0 disables discounting entirely).
    """

    fleet_size: int
    sampled_per_round: int
    rounds: int
    local_steps: int = 1
    buffer_size: Optional[int] = None
    staleness_alpha: float = 0.5
    seed: int = 0
    round_timeout_s: Optional[float] = None
    eval_every: int = 1
    eval_sample: Optional[int] = None
    median_seconds_per_step: float = 0.05
    heterogeneity: float = 0.5
    link: LinkModel = field(default_factory=LinkModel)

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if not 0 < self.sampled_per_round <= self.fleet_size:
            raise ValueError(
                "sampled_per_round must be in [1, fleet_size]"
            )
        if self.rounds < 1 or self.local_steps < 1:
            raise ValueError("rounds and local_steps must be >= 1")
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError("buffer_size must be >= 1 (or None)")
        if self.staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")

    @property
    def effective_buffer(self) -> int:
        return (
            self.sampled_per_round
            if self.buffer_size is None
            else min(self.buffer_size, self.sampled_per_round)
        )


@dataclass
class FleetResult:
    """Everything a fleet run produces."""

    params: Params
    history: RunLogger
    comm_log: CommunicationLog
    server_version: int
    rounds_completed: int
    sim_clock_s: float
    resident_peak: int
    updates_aggregated: int


class FleetSimulator:
    """Drives a :class:`~repro.engine.strategies.LocalStrategy` over a
    lazy fleet with event-driven rounds and pluggable aggregation."""

    def __init__(
        self,
        strategy: Any,
        config: FleetConfig,
        shards: Optional[ShardFactory] = None,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultPlan] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.strategy = strategy
        self.config = config
        self.telemetry = telemetry
        self.shards = (
            shards
            if shards is not None
            else SyntheticShardFactory(seed=config.seed)
        )
        self.registry = FleetRegistry(
            config.fleet_size, self.shards, telemetry=telemetry
        )
        self.sampler = IdSpaceSampler(config.sampled_per_round, config.seed)
        self.comm_log = CommunicationLog(link=config.link)
        self.faults = faults if faults is not None else FaultPlan.none()
        explicit = self.faults.explicit_events()
        kinds = {s.kind for s in self.faults.schedules}
        if "flaky" in kinds.union(e.kind for e in explicit):
            raise ValueError(
                "flaky faults are not supported on the fleet path "
                "(no executor blocks to be flaky)"
            )
        outside = [
            e.node_id
            for e in explicit
            if e.kind != "kill" and not 0 <= e.node_id < config.fleet_size
        ]
        if outside:
            raise ValueError(
                f"fault event targets node {min(outside)} outside fleet "
                f"[0, {config.fleet_size})"
            )
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.buffer = BufferedAggregator(
            config.effective_buffer, config.staleness_alpha
        )
        self._versions = _VersionStore()
        self._pending: List[Tuple[float, int, int, Dict[str, Any]]] = []
        self.params: Optional[Params] = None
        self.server_version = 0
        self.sim_clock_s = 0.0
        self.updates_aggregated = 0
        # Fixed seeded evaluation subset: comparable loss curve across
        # rounds without ever touching the whole fleet.
        eval_count = (
            config.eval_sample
            if config.eval_sample is not None
            else min(32, config.sampled_per_round)
        )
        self._eval_ids = sample_id_space(
            config.fleet_size,
            min(eval_count, config.fleet_size),
            spawn(config.seed, "fleet-eval"),
        )

    # -- timing ---------------------------------------------------------
    def _seconds_per_step(self, node_id: int) -> float:
        """Lognormal device speed, a fixed deterministic trait per node."""
        cfg = self.config
        draw = spawn(cfg.seed, "fleet-speed", node_id).normal(
            0.0, cfg.heterogeneity
        )
        return float(cfg.median_seconds_per_step * np.exp(draw))

    # -- the run --------------------------------------------------------
    def run(self, resume: bool = False) -> FleetResult:
        cfg = self.config
        strategy = self.strategy
        tel = resolve(self.telemetry)
        events = tel.events
        history = RunLogger(
            name=f"fleet-{strategy.name}",
            registry=self.telemetry.registry if self.telemetry else None,
        )

        if resume:
            if self.checkpoint_path is None:
                raise ValueError("resume=True requires a checkpoint_path")
            start_round = self._restore(history)
        else:
            rng = np.random.default_rng(cfg.seed)
            self.params = strategy.initial_params(rng, None)
            self.server_version = 0
            start_round = 0

        events.emit(
            "run_start",
            algorithm=f"fleet-{strategy.name}",
            seed=int(cfg.seed),
            nodes=int(cfg.fleet_size),
            t0=int(cfg.local_steps),
            total_iterations=int(cfg.rounds * cfg.local_steps),
            blocks=int(cfg.rounds),
            executor="FleetSimulator",
            resumed=bool(resume),
            policy=self.faults.describe(),
        )
        sampled_total = tel.counter("fl_fleet_sampled_total")
        staleness_hist = tel.histogram(
            "fl_fleet_staleness", buckets=_STALENESS_BUCKETS
        )

        for round_index in range(start_round, cfg.rounds):
            with tel.span("fleet_round", round=round_index):
                delivered = self._run_round(
                    round_index, tel, staleness_hist, sampled_total
                )
            if (round_index + 1) % cfg.eval_every == 0 or (
                round_index + 1 == cfg.rounds
            ):
                assert self.params is not None
                with tel.span("evaluate"):
                    metrics = self._evaluate(self.params)
                metrics["participants"] = float(delivered)
                metrics["uplink_bytes"] = float(self.comm_log.uplink_bytes)
                history.log(round_index + 1, **metrics)
            if (
                self.checkpoint_path is not None
                and (round_index + 1) % self.checkpoint_every == 0
            ):
                self._save(round_index, history)
            if self.faults.killed_after(round_index):
                raise RunInterrupted(
                    round_index + 1, round_index, self.checkpoint_path
                )

        assert self.params is not None
        events.emit(
            "run_end",
            t=int(cfg.rounds * cfg.local_steps),
            aggregations=int(self.server_version),
            uplink_bytes=int(self.comm_log.uplink_bytes),
            downlink_bytes=int(self.comm_log.downlink_bytes),
        )
        tel.gauge("fl_sim_clock_seconds").set(self.sim_clock_s)
        return FleetResult(
            params=detach(self.params),
            history=history,
            comm_log=self.comm_log,
            server_version=self.server_version,
            rounds_completed=cfg.rounds,
            sim_clock_s=self.sim_clock_s,
            resident_peak=self.registry.resident_peak,
            updates_aggregated=self.updates_aggregated,
        )

    # ------------------------------------------------------------------
    def _run_round(
        self,
        round_index: int,
        tel: Any,
        staleness_hist: Any,
        sampled_total: Any,
    ) -> int:
        """Sample, dispatch, and drain one round's wave; returns deliveries."""
        cfg = self.config
        events = tel.events
        assert self.params is not None
        ids = self.sampler.select_ids(cfg.fleet_size, round_index)
        sampled_total.inc(len(ids))
        events.emit(
            "fleet_round_start",
            block=round_index,
            sampled=len(ids),
            version=self.server_version,
            clock=self.sim_clock_s,
        )
        payload = payload_bytes(self.params)
        heap = self._pending
        faults = self.faults
        for node_id in ids:
            if faults.crashed(round_index, node_id):
                record_fault(tel, "crash", round_index, node_id)
                continue  # unreachable: no sync, no dispatch, no bytes
            self.comm_log.charge_download(round_index + 1, node_id, payload)
            delay = faults.delay_s(round_index, node_id)
            if delay > 0.0:
                record_fault(tel, "delay", round_index, node_id)
            duration = (
                cfg.local_steps * self._seconds_per_step(node_id)
                + cfg.link.upload_time(payload)
                + delay
            )
            dropped = faults.dropped(round_index, node_id)
            if dropped:
                record_fault(tel, "drop", round_index, node_id)
            info = {
                "round": round_index,
                "version": self.server_version,
                "dropped": dropped,
            }
            events.emit(
                "fleet_dispatch",
                block=round_index,
                node=node_id,
                version=self.server_version,
                eta=self.sim_clock_s + duration,
            )
            if (
                cfg.round_timeout_s is not None
                and duration > cfg.round_timeout_s
            ):
                heapq.heappush(
                    heap,
                    (
                        self.sim_clock_s + cfg.round_timeout_s,
                        _EVENT_RANK["timeout"],
                        node_id,
                        info,
                    ),
                )
            else:
                heapq.heappush(
                    heap,
                    (
                        self.sim_clock_s + duration,
                        _EVENT_RANK["completion"],
                        node_id,
                        info,
                    ),
                )
            self._versions.retain(self.server_version, self.params)

        delivered = 0
        wave_end = self.sim_clock_s
        while heap:
            when, rank, node_id, info = heapq.heappop(heap)
            wave_end = max(wave_end, when)
            base_version = int(info["version"])
            if rank == _EVENT_RANK["timeout"]:
                tel.counter("fl_stragglers_dropped_total").inc()
                events.emit(
                    "fleet_timeout", block=info["round"], node=node_id,
                    clock=when,
                )
                self._versions.release(base_version)
                continue
            if info["dropped"]:
                # Computed but lost in transit: the simulated time passed,
                # the update never reaches the buffer.
                self._versions.release(base_version)
                continue
            update, weight = self._train_node(
                info["round"], node_id, base_version
            )
            corrupt = faults.corruption(info["round"], node_id)
            if corrupt is not None:
                update = faults.corrupt_params(
                    update, corrupt, info["round"], node_id
                )
                record_fault(tel, "corrupt", info["round"], node_id)
            self.comm_log.charge_upload(
                info["round"] + 1, node_id, payload_bytes(update)
            )
            staleness = self.server_version - base_version
            events.emit(
                "fleet_completion",
                block=info["round"],
                node=node_id,
                staleness=staleness,
                clock=when,
            )
            if not all(
                np.isfinite(t.data).all() for t in update.values()
            ):
                tel.counter("fl_quarantined_total").inc()
                events.emit(
                    "quarantine", block=info["round"], node=node_id
                )
                self._versions.release(base_version)
                continue
            delivered += 1
            staleness_hist.observe(float(staleness))
            full = self.buffer.add(
                BufferEntry(
                    node_id=node_id,
                    weight=weight,
                    base_version=base_version,
                    params=update,
                )
            )
            if full:
                self._flush(round_index, tel)
        # Synchronous mode: close the round on whatever arrived.  Buffered
        # mode carries the partial buffer into the next round (FedBuff).
        if cfg.buffer_size is None and len(self.buffer):
            self._flush(round_index, tel)
        self.sim_clock_s = wave_end
        tel.gauge("fl_sim_clock_seconds").set(self.sim_clock_s)
        events.emit(
            "fleet_round_end",
            block=round_index,
            version=self.server_version,
            delivered=delivered,
            clock=self.sim_clock_s,
            buffered=len(self.buffer),
        )
        return delivered

    def _train_node(
        self, round_index: int, node_id: int, base_version: int
    ) -> Tuple[Params, float]:
        """Materialize, train one block, evict; returns the update and the
        node's weight ``|D_i|``, read off the shard it just built."""
        strategy = self.strategy
        cfg = self.config
        node = self.registry.materialize(
            node_id, self._versions.get(base_version)
        )
        strategy.bind_node_rng(
            instrument_node_rng(
                np.random.default_rng([cfg.seed, round_index, node_id]),
                round_index,
                node_id,
            )
        )
        for _ in range(cfg.local_steps):
            strategy.local_step(node)
        assert node.params is not None
        update = detach(node.params)
        self.registry.evict(node_id, strategy)
        return update, node.weight

    def _flush(self, round_index: int, tel: Any) -> None:
        assert self.params is not None
        merged, stats = self.buffer.flush(
            self.params, self.server_version, self._versions.snapshot()
        )
        for stat in stats:
            self._versions.release(int(stat["base_version"]))
        self.params = merged
        self.server_version += 1
        self.updates_aggregated += len(stats)
        tel.counter("fl_fleet_flushes_total").inc()
        tel.events.emit(
            "fleet_flush",
            block=round_index,
            version=self.server_version,
            size=len(stats),
            max_staleness=max(s["staleness"] for s in stats),
        )

    def _evaluate(self, params: Params) -> Dict[str, float]:
        """Strategy metrics over the fixed eval subset (transient nodes)."""
        nodes = [self.registry.materialize(nid) for nid in self._eval_ids]
        try:
            metrics = dict(self.strategy.evaluate(params, nodes))
        finally:
            for nid in self._eval_ids:
                self.registry.evict(nid, self.strategy)
        return metrics

    # -- checkpoint / resume -------------------------------------------
    def _save(self, round_index: int, history: RunLogger) -> None:
        """Checkpoint θ + buffer + base versions + pending events."""
        assert self.params is not None
        tree: Params = dict(detach(self.params))
        buffer_meta: List[Dict[str, Any]] = []
        for i, entry in enumerate(self.buffer.entries):
            buffer_meta.append(
                {
                    "node": int(entry.node_id),
                    "weight": float(entry.weight),
                    "base_version": int(entry.base_version),
                }
            )
            for name, tensor in entry.params.items():
                tree[f"{_BUF_PREFIX}{i}::{name}"] = tensor
        versions = self._versions.snapshot()
        # Serialize the store's live refcounts (buffer anchors + pending
        # in-flight events).  Deriving them from the buffer alone loses the
        # pending retains, so a resumed run would drop versions its pending
        # events still need and crash on their release.
        refs = self._versions.refcounts()
        for version, params in versions.items():
            for name, tensor in params.items():
                tree[f"{_VER_PREFIX}{version}::{name}"] = tensor
        state = {
            "version": _FLEET_CKPT_VERSION,
            "kind": "fleet",
            "algorithm": self.strategy.name,
            "seed": int(self.config.seed),
            "round": int(round_index + 1),
            "server_version": int(self.server_version),
            "sim_clock_s": float(self.sim_clock_s),
            "uplink_bytes": int(self.comm_log.uplink_bytes),
            "downlink_bytes": int(self.comm_log.downlink_bytes),
            "updates_aggregated": int(self.updates_aggregated),
            "resident_peak": int(self.registry.resident_peak),
            "buffer": buffer_meta,
            "version_refs": {str(v): int(r) for v, r in refs.items()},
            "pending_events": [
                [float(t), int(rank), int(node), dict(info)]
                for t, rank, node, info in sorted(self._pending)
            ],
            "history": history.records,
        }
        save_checkpoint(self.checkpoint_path, tree, state)
        tel = resolve(self.telemetry)
        tel.counter("fl_checkpoints_total").inc()
        tel.events.emit(
            "checkpoint",
            t=int(round_index + 1),
            aggregations=int(self.server_version),
            path=self.checkpoint_path,
        )

    def _restore(self, history: RunLogger) -> int:
        assert self.checkpoint_path is not None
        checkpoint = load_checkpoint(self.checkpoint_path)
        state = checkpoint.state
        if state.get("kind") != "fleet":
            raise ValueError(
                f"{self.checkpoint_path} is not a fleet checkpoint"
            )
        if state.get("algorithm") != self.strategy.name:
            raise ValueError(
                f"checkpoint is for algorithm '{state.get('algorithm')}', "
                f"not '{self.strategy.name}'"
            )
        if int(state.get("seed", -1)) != int(self.config.seed):
            raise ValueError(
                f"checkpoint seed {state.get('seed')} does not match "
                f"config seed {self.config.seed}"
            )
        params: Params = {}
        buffer_trees: Dict[int, Params] = {}
        version_trees: Dict[int, Params] = {}
        for name, tensor in checkpoint.params.items():
            if name.startswith(_BUF_PREFIX):
                index_text, _, leaf = name[len(_BUF_PREFIX):].partition("::")
                buffer_trees.setdefault(int(index_text), {})[leaf] = tensor
            elif name.startswith(_VER_PREFIX):
                version_text, _, leaf = name[len(_VER_PREFIX):].partition(
                    "::"
                )
                version_trees.setdefault(int(version_text), {})[leaf] = tensor
            else:
                params[name] = tensor
        self.params = params
        self.server_version = int(state["server_version"])
        self.sim_clock_s = float(state["sim_clock_s"])
        self.updates_aggregated = int(state.get("updates_aggregated", 0))
        self.comm_log.restore_totals(
            int(state["uplink_bytes"]), int(state["downlink_bytes"])
        )
        self.buffer.entries = [
            BufferEntry(
                node_id=int(meta["node"]),
                weight=float(meta["weight"]),
                base_version=int(meta["base_version"]),
                params=buffer_trees[i],
            )
            for i, meta in enumerate(state.get("buffer", []))
        ]
        self._versions = _VersionStore()
        for version_text, refs in state.get("version_refs", {}).items():
            version = int(version_text)
            count = int(refs)
            if count <= 0 or version not in version_trees:
                raise ValueError(
                    f"corrupt fleet checkpoint: version {version} has "
                    f"refcount {count} and "
                    f"{'a' if version in version_trees else 'no'} saved tree"
                )
            for _ in range(count):
                self._versions.retain(version, version_trees[version])
        self._versions.check_invariant()
        self._pending = [
            (float(t), int(rank), int(node), dict(info))
            for t, rank, node, info in state.get("pending_events", [])
        ]
        heapq.heapify(self._pending)
        history.load_records(state.get("history", []))
        tel = resolve(self.telemetry)
        tel.counter("fl_resumes_total").inc()
        tel.events.emit(
            "resume",
            t=int(state["round"]),
            aggregations=int(self.server_version),
            path=self.checkpoint_path,
        )
        return int(state["round"])
