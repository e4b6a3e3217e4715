"""The four paper workloads, built through ``repro``'s public API.

Imported only by the child process (``child.py``), after the set-up clock
has started.  :func:`build` generates the seeded inputs, constructs the
runner exactly as a user would, and returns a :class:`Job` whose
``train`` is the timed ``fit()`` / ``run()`` call.

Round boundaries are marked through objects passed in by constructor or
shadowed on the built simulator, the same way in timed and traced runs:
:class:`BenchPlatform` marks each aggregation's completion (engine
workloads), the fleet's sampler marks each round's start, and
:class:`ShardProxy` lets the fleet's shard generation be traced.  In a
timed run a mark takes a calibration probe (``calib.py``); the probe's
time is excluded from every reported duration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    FedAvgConfig,
    FedML,
    FedMLConfig,
    RobustFedML,
    RobustFedMLConfig,
    evaluate_adaptation,
)
from repro.data import (
    Dataset,
    FederatedDataset,
    MnistLikeConfig,
    NodeSplit,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_mnist_like,
    generate_sent140_like,
    generate_synthetic,
)
from repro.engine import SerialExecutor, SgdStrategy, VectorizedExecutor
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    ShardFactory,
    SyntheticShardFactory,
)
from repro.federated.platform import Platform
from repro.metrics import target_splits
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import Params

from calib import ProbeLog
from layer_trace import OBS_LAYER, Tracer
from specs import ADAPT_K, ADAPT_STEPS, SOURCE_FRACTION, spec


class Hooks:
    """Round-boundary probes, and the tracer in a traced run."""

    def __init__(self, probes: ProbeLog, tracer: Optional[Tracer] = None):
        self.probes = probes
        self.tracer = tracer
        self.rounds_marked = 0

    def mark_round(self) -> None:
        self.rounds_marked += 1
        if self.tracer is None:
            self.probes.take()
            return
        # Its own span, so no layer's self time absorbs the probe.
        with self.tracer.span("probe", OBS_LAYER):
            self.probes.take()

    def traced(
        self, name: str, layer: str, fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        return fn if self.tracer is None else self.tracer.wrap(name, layer, fn)


class BenchPlatform(Platform):
    """The default platform; marks each aggregation's completion."""

    #: set right after construction (``Platform`` is a dataclass)
    bench_hooks: Hooks

    def aggregate(self, nodes: Sequence[Any]) -> Params:
        hooks = self.bench_hooks
        result = hooks.traced("aggregate", "platform", super().aggregate)(nodes)
        hooks.mark_round()
        return result


class ShardProxy(ShardFactory):
    """Delegates to a real shard factory; its ``make`` can be traced."""

    def __init__(self, inner: ShardFactory, hooks: Hooks) -> None:
        self.inner = inner
        self.k = inner.k
        self._make = hooks.traced("shard_make", "data", inner.make)

    def num_samples(self, node_id: int) -> int:
        return self.inner.num_samples(node_id)

    def make(self, node_id: int) -> Dataset:
        return self._make(node_id)


@dataclass
class Job:
    """One built workload: the timed call and how to read its outcome."""

    kind: str
    train: Callable[[], Any]
    model: Any
    targets: List[NodeSplit]
    alpha: float
    #: (object, method, span name, layer) shadowed in a traced run
    trace_methods: List[Tuple[Any, str, str, str]] = field(default_factory=list)
    root_name: str = "fit"
    root_layer: str = "engine"
    resident_bound: Optional[int] = None

    def adapt(self, params: Params) -> List[float]:
        """Target accuracies after 0..ADAPT_STEPS steps (paper eq. 6)."""
        curve = evaluate_adaptation(
            self.model, params, self.targets, alpha=self.alpha,
            max_steps=ADAPT_STEPS,
        )
        return list(curve.accuracies)


_LOSS_KEYS = ("global_meta_loss", "global_loss")


def losses(history: Any) -> List[float]:
    """The logged global objective, whichever the strategy records."""
    for key in _LOSS_KEYS:
        series = history.series(key)
        if series:
            return [float(v) for v in series]
    return []


def _engine_job(name: str, seed: int, smoke: bool, hooks: Hooks) -> Job:
    knobs = spec(name, smoke)
    dataset = knobs["dataset"]
    if dataset == "synthetic":
        generate: Callable[[Any], Any] = generate_synthetic
        config: Any = SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=knobs["nodes"], seed=seed
        )
    elif dataset == "mnist":
        generate = generate_mnist_like
        config = MnistLikeConfig(num_nodes=knobs["nodes"], seed=seed)
    else:
        generate = generate_sent140_like
        size = knobs["samples_per_node"]
        config = Sent140LikeConfig(
            num_nodes=knobs["nodes"], min_samples=size, seed=seed
        )
    federated = hooks.traced("generate", "data", generate)(config)
    if "samples_per_node" in knobs:
        federated = FederatedDataset(
            name=federated.name,
            nodes=[
                node.subset(range(knobs["samples_per_node"]))
                for node in federated.nodes
            ],
            num_classes=federated.num_classes,
            metadata=federated.metadata,
        )
    sources, targets = federated.split_sources_targets(
        SOURCE_FRACTION, np.random.default_rng(seed)
    )
    if dataset == "synthetic":
        model: Any = LogisticRegression(60, 10)
    elif dataset == "mnist":
        model = LogisticRegression(64, 10)
    else:
        model = EmbeddingClassifier(
            vocab_size=federated.metadata["vocab_size"],
            embed_dim=16,
            seq_len=federated.metadata["seq_len"],
            hidden_dims=(32, 16),
            num_classes=2,
            batch_norm=True,
            embedding_seed=0,
        )
    platform = BenchPlatform()
    platform.bench_hooks = hooks
    executor: Any = (
        VectorizedExecutor() if knobs["executor"] == "vectorized"
        else SerialExecutor()
    )
    common = dict(
        alpha=knobs["alpha"], beta=knobs["beta"], t0=knobs["t0"],
        total_iterations=knobs["iterations"], k=ADAPT_K,
        eval_every=knobs["eval_every"], seed=seed,
    )
    if knobs["algorithm"] == "robust-fedml":
        trainer: Any = RobustFedML(
            model,
            RobustFedMLConfig(
                lam=knobs["lam"], nu=knobs["nu"], ta=knobs["ta"],
                n0=knobs["n0"], r_max=knobs["r_max"], **common,
            ),
            platform=platform,
            executor=executor,
        )
    else:
        trainer = FedML(
            model, FedMLConfig(**common), platform=platform,
            executor=executor,
        )
    strategy = trainer.strategy
    return Job(
        kind="engine",
        train=lambda: trainer.fit(federated, sources),
        model=model,
        targets=target_splits(federated, targets, k=ADAPT_K),
        alpha=knobs["alpha"],
        trace_methods=[
            (strategy, "local_step", "local_step", "strategies"),
            (strategy, "local_block_vectorized", "local_block_vectorized",
             "strategies"),
            (strategy, "evaluate", "evaluate", "strategies"),
            (strategy, "on_block_end", "on_block_end", "strategies"),
            (executor, "run_block", "run_block", "engine"),
        ],
    )


def _fleet_job(name: str, seed: int, smoke: bool, hooks: Hooks) -> Job:
    knobs = spec(name, smoke)
    inner = SyntheticShardFactory(seed=seed)
    shards = ShardProxy(inner, hooks)
    model = LogisticRegression(inner.input_dim, inner.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=knobs["learning_rate"], t0=knobs["local_steps"],
            total_iterations=knobs["rounds"] * knobs["local_steps"],
            eval_every=knobs["eval_every"], seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=knobs["fleet_size"],
        sampled_per_round=knobs["sampled"],
        rounds=knobs["rounds"],
        local_steps=knobs["local_steps"],
        buffer_size=knobs["buffer_size"],
        staleness_alpha=knobs["staleness_alpha"],
        seed=seed,
        eval_every=knobs["eval_every"],
    )
    simulator = FleetSimulator(strategy, config, shards=shards)
    sampler = simulator.sampler
    select_ids = hooks.traced("select_ids", "fleet", sampler.select_ids)

    def stamped_select_ids(fleet_size: int, round_index: int) -> List[int]:
        hooks.mark_round()
        return select_ids(fleet_size, round_index)

    sampler.select_ids = stamped_select_ids  # type: ignore[method-assign]
    # Targets are ids past the registered range: nodes the fleet never
    # trained on, built by the same seeded factory.
    targets = []
    for offset in range(knobs["targets"]):
        train, test = inner.make(knobs["fleet_size"] + offset).split(ADAPT_K)
        targets.append(NodeSplit(train=train, test=test))
    registry = simulator.registry
    return Job(
        kind="fleet",
        train=simulator.run,
        model=model,
        targets=targets,
        alpha=knobs["alpha"],
        trace_methods=[
            (strategy, "local_step", "local_step", "strategies"),
            (strategy, "evaluate", "evaluate", "strategies"),
            (registry, "materialize", "materialize", "fleet"),
            (registry, "evict", "evict", "fleet"),
            (simulator.buffer, "flush", "flush", "fleet"),
        ],
        root_name="run",
        root_layer="fleet",
        resident_bound=config.sampled_per_round + config.effective_buffer,
    )


def build(name: str, seed: int, smoke: bool, hooks: Hooks) -> Job:
    if spec(name, smoke)["kind"] == "fleet":
        return _fleet_job(name, seed, smoke, hooks)
    return _engine_job(name, seed, smoke, hooks)


def comm_bytes(job: Job, result: Any) -> Tuple[int, int]:
    log = result.comm_log if job.kind == "fleet" else result.platform.comm_log
    return int(log.uplink_bytes), int(log.downlink_bytes)


def theta_digest(params: Params) -> str:
    """sha256 over names, shapes and float64 bytes of a parameter tree."""
    digest = hashlib.sha256()
    for name in sorted(params):
        data = np.ascontiguousarray(np.asarray(params[name].data, np.float64))
        digest.update(name.encode())
        digest.update(str(data.shape).encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


def theta_finite(params: Params) -> bool:
    return all(bool(np.isfinite(params[n].data).all()) for n in params)

