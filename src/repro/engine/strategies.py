"""Pluggable local strategies — the *algorithm* half of the round engine.

A :class:`LocalStrategy` answers three questions the driver
(:class:`~repro.engine.round_engine.RoundEngine`) does not want to know
about: how a node's state is prepared (``build_nodes`` /
``init_node_state``), what one local iteration does (``local_step``), and
how the global objective is measured (``evaluate``).  Everything else —
``t % T0`` aggregation, participation sampling, resynchronization,
telemetry, history — is the engine's job and identical for every algorithm.

Strategies are deliberately *plain data + functions*: they hold the model,
a frozen config, and the loss function.  Mutable per-fit state (the FedProx
anchor, Robust FedML's generation counters) is rebuilt by ``begin_fit``
each run; per-node caches are dropped in ``release_node``.

The concrete strategies map onto the paper and its baselines:

=====================  ==============================================
Strategy               Algorithm
=====================  ==============================================
``SgdStrategy``        FedAvg (McMahan et al., 2016)
``ProxStrategy``       FedProx (Sahu et al., 2018)
``MetaStrategy``       FedML / Algorithm 1 (exact or first-order MAML)
``MetaSgdStrategy``    Federated Meta-SGD (Li et al., 2017)
``ReptileStrategy``    Federated Reptile (Nichol et al., 2018)
``AdmlStrategy``       ADML-style adversarial meta-learning
``AdversarialStrategy``  Robust FedML / Algorithm 2 (Wasserstein DRO)
=====================  ==============================================
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..attacks.fgsm import fgsm
from ..autodiff import Tensor, fastpath, grad, ops
from ..attacks.wasserstein import wasserstein_ascent
from ..data.dataset import Dataset, FederatedDataset, NodeSplit
from ..federated.node import EdgeNode, build_nodes
from ..nn.batched import (
    _param_shapes,
    batched_loss_gradient,
    batched_meta_gradient,
    batched_model_loss,
    stack_params,
    supports_batched_loss,
    unstack_params,
)
from ..nn.fused import fused_model_loss
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params, add_scaled, detach, require_grad
from ..core.maml import LossFn, MetaGradientFn, inner_adapt, meta_loss
from ..core.maml import meta_gradient, meta_gradient_fn
from .evaluation import loss_gradient, node_training_data, weighted_node_average

__all__ = [
    "LocalStrategy",
    "RunnerStepAdapter",
    "SgdStrategy",
    "ProxStrategy",
    "MetaStrategy",
    "MetaSgdStrategy",
    "ReptileStrategy",
    "AdmlStrategy",
    "AdversarialStrategy",
    "merge_meta_sgd_trees",
    "split_meta_sgd_trees",
]


class LocalStrategy:
    """Protocol + shared plumbing for one algorithm's local behaviour.

    Subclasses must implement :meth:`local_step` and :meth:`evaluate`; the
    remaining hooks have sensible defaults.  ``config`` must expose ``t0``,
    ``total_iterations``, ``eval_every`` and ``seed`` — the knobs the engine
    drives the round loop with.
    """

    #: algorithm label used for the run logger and telemetry dimensions
    name: str = "strategy"
    #: log an iteration-0 history record before training starts
    log_initial: bool = True
    #: include platform uplink bytes in the history records
    log_uplink: bool = False
    #: capability flag: this strategy implements
    #: :meth:`local_block_vectorized` and may be run by the
    #: ``VectorizedExecutor`` as one stacked tape per block.  Stacked fp
    #: math reorders accumulations, so only strategies that opt in here
    #: are ever vectorized; everything else falls back to serial per-node
    #: execution inside the same block.
    supports_vectorized: bool = False

    def __init__(
        self, model: Model, config: Any, loss_fn: LossFn = cross_entropy
    ) -> None:
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        #: deterministic per-node generator bound by the executor before
        #: each node's block of local steps (see ``Executor.run_block``)
        self._node_rng: Optional[np.random.Generator] = None

    # -- node construction ---------------------------------------------
    def build_nodes(
        self, federated: FederatedDataset, source_ids: Sequence[int]
    ) -> List[EdgeNode]:
        """K-shot node construction (the meta-learning default)."""
        datasets = [federated.nodes[i] for i in source_ids]
        return build_nodes(datasets, self.config.k, node_ids=list(source_ids))

    def init_node_state(self, node: EdgeNode) -> None:
        """Per-node setup before θ⁰ is broadcast (default: nothing)."""

    def initial_params(
        self, rng: np.random.Generator, init_params: Optional[Params]
    ) -> Params:
        """The tree installed as θ⁰ (drawing from ``rng`` when not given)."""
        if init_params is not None:
            return detach(init_params)
        return self.model.init(rng)

    def begin_fit(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        """Reset per-fit strategy state after the initial broadcast."""

    # -- the local update ----------------------------------------------
    def local_step(self, node: EdgeNode) -> float:
        """One local iteration on ``node``; returns the local loss value."""
        raise NotImplementedError

    # -- vectorized (stacked) execution ---------------------------------
    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        """Grouping key for stacked execution, or ``None`` to fall back.

        Nodes with equal signatures share one stacked tape; the key must
        capture everything that makes their buffers stackable (data
        shapes, dtypes).  The base implementation opts every node out.
        """
        return None

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """Run ``steps`` local iterations for all ``nodes`` as one tape.

        Only called by the ``VectorizedExecutor``, only when
        ``supports_vectorized`` is set, and only on groups with equal
        :meth:`vectorized_signature`.  ``rngs[i]`` is node ``i``'s
        deterministic ``[seed, block, node]`` generator — the same stream
        the serial executor would bind.
        """
        raise NotImplementedError

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        """Global objective metrics logged on the evaluation cadence."""
        raise NotImplementedError

    # -- engine hooks ---------------------------------------------------
    def on_aggregate(
        self, aggregated: Params, nodes: Sequence[EdgeNode]
    ) -> None:
        """Called after every global aggregation (default: nothing)."""

    def on_block_end(
        self,
        t: int,
        nodes: Sequence[EdgeNode],
        rng: np.random.Generator,
        telemetry: Any,
    ) -> None:
        """Called at every block boundary ``t`` (multiples of T0 and T)."""

    # -- checkpoint hooks -----------------------------------------------
    # Checkpoints are written at aggregation boundaries, where every node
    # already holds the broadcast global model — so the engine persists the
    # global tree itself, and a strategy only contributes (a) extra tensors
    # that live outside that tree and (b) JSON-serializable per-fit state.
    def checkpoint_extras(self, nodes: Sequence[EdgeNode]) -> Params:
        """Extra named tensors to persist beside θ (default: none)."""
        return {}

    def restore_extras(
        self, extras: Params, nodes: Sequence[EdgeNode]
    ) -> None:
        """Reinstate tensors from :meth:`checkpoint_extras` (default: no-op)."""

    def checkpoint_state(self, nodes: Sequence[EdgeNode]) -> Dict[str, Any]:
        """JSON-serializable per-fit state to persist (default: none).

        Called after ``begin_fit`` state exists; anything ``begin_fit``
        rebuilds from the restored global model (e.g. the FedProx anchor)
        need not be saved here.
        """
        return {}

    def restore_state(
        self, state: Dict[str, Any], nodes: Sequence[EdgeNode]
    ) -> None:
        """Reinstate state from :meth:`checkpoint_state` (default: no-op)."""

    def bind_node_rng(self, rng: np.random.Generator) -> None:
        """Install the executor's deterministic per-node generator."""
        self._node_rng = rng

    def release_node(self, node: EdgeNode) -> None:
        """Drop any per-node caches when ``node`` is evicted.

        The fleet registry materializes nodes transiently and calls this on
        eviction; a strategy that memoizes per-``node_id`` state (see
        :class:`SgdStrategy`) must release it here or the cache grows with
        every node ever sampled — exactly the O(fleet) residency the lazy
        registry exists to avoid.  Default: nothing to release.
        """


class RunnerStepAdapter:
    """Routes ``local_step`` through a runner that overrides it.

    Benchmarks subclass the facade runners (e.g. ``FedML``) and override
    ``local_step`` to inject faults or noise.  The facades detect the
    override and hand the engine this adapter so the subclass behaviour
    still applies.  The adapter holds the runner (telemetry, platform and
    all); overridden steps always run node by node.
    """

    #: never vectorize through the adapter: the runner's overridden
    #: ``local_step`` is the whole point, and a stacked block would skip it
    #: (class attribute, so ``__getattr__`` cannot forward the strategy's)
    supports_vectorized = False

    def __init__(self, strategy: LocalStrategy, runner: Any) -> None:
        self._strategy = strategy
        self._runner = runner

    def local_step(self, node: EdgeNode) -> float:
        return self._runner.local_step(node)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._strategy, name)


# ----------------------------------------------------------------------
# Consensus baselines: FedAvg and FedProx
# ----------------------------------------------------------------------
def _consensus_nodes(
    federated: FederatedDataset, source_ids: Sequence[int]
) -> List[EdgeNode]:
    """Node construction shared by FedAvg/FedProx.

    Consensus algorithms ignore the K-split for training (they use all
    local data) but keep the same node/weight construction as the
    meta-learners for comparability.
    """
    datasets = [federated.nodes[i] for i in source_ids]
    min_size = min(len(d) for d in datasets)
    return build_nodes(
        datasets, max(1, min(2, min_size - 1)), node_ids=list(source_ids)
    )


class SgdStrategy(LocalStrategy):
    """FedAvg: plain SGD on the node's entire local dataset."""

    name = "fedavg"
    log_uplink = True

    def build_nodes(
        self, federated: FederatedDataset, source_ids: Sequence[int]
    ) -> List[EdgeNode]:
        return _consensus_nodes(federated, source_ids)

    def _full_data(self, node: EdgeNode) -> Dataset:
        cache: Dict[int, Dataset] = self.__dict__.setdefault("_data_cache", {})
        data = cache.get(node.node_id)
        if data is None:
            data = node_training_data(node)
            cache[node.node_id] = data
        return data

    def local_step(self, node: EdgeNode) -> float:
        assert node.params is not None
        gradient = loss_gradient(
            self.model, node.params, self._full_data(node), self.loss_fn
        )
        node.params = self._update(node.params, gradient)
        node.record_local_step(gradient_evals=1)
        return 0.0

    def _update(self, params: Params, gradient: Params) -> Params:
        """One SGD step; ``params`` may carry a leading node axis."""
        return add_scaled(params, gradient, -self.config.learning_rate)

    def release_node(self, node: EdgeNode) -> None:
        cache = self.__dict__.get("_data_cache")
        if cache is not None:
            cache.pop(node.node_id, None)

    supports_vectorized = True

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        if not supports_batched_loss(self.model, self.loss_fn):
            return None
        data = self._full_data(node)
        x = np.asarray(data.x)
        return (x.shape, x.dtype.kind, np.asarray(data.y).shape)

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        datasets = [self._full_data(node) for node in nodes]
        batch = (
            np.stack([np.asarray(d.x) for d in datasets]),
            np.stack([np.asarray(d.y) for d in datasets]),
        )
        stacked = stack_params([node.params for node in nodes])
        # The first-order kernel, its inputs hoisted out of the steps; the
        # stacked tape where it declines.
        kernel = batched_loss_gradient(self.model, batch, self.loss_fn)
        for _ in range(steps):
            if kernel is not None:
                _, grads, _ = kernel({n: t.data for n, t in stacked.items()})
                gradient = {name: Tensor(g) for name, g in grads.items()}
            else:
                gradient = self._stacked_tape_gradient(stacked, batch)
            stacked = self._update(stacked, gradient)
        self._apply_stacked(nodes, stacked, steps)

    def _apply_stacked(
        self, nodes: Sequence[EdgeNode], stacked: Params, steps: int
    ) -> None:
        for node, tree in zip(nodes, unstack_params(stacked, len(nodes))):
            # Intentional per-node loop: state fan-out and step accounting,
            # not compute (the compute ran stacked above).
            node.params = tree
            for _ in range(steps):
                node.record_local_step(gradient_evals=1)

    def _stacked_tape_gradient(
        self, stacked: Params, batch: Tuple[np.ndarray, np.ndarray]
    ) -> Params:
        """Every node's loss gradient from one stacked tape."""
        theta = require_grad(stacked)
        names = sorted(theta)
        loss_vec = batched_model_loss(self.model, theta, *batch)
        grads = grad(
            ops.sum_(loss_vec), [theta[n] for n in names], allow_unused=True
        )
        return {
            name: Tensor(np.zeros_like(theta[name].data)) if g is None else g
            for name, g in zip(names, grads)
        }

    def global_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        """Weighted empirical loss ``L_w(theta)`` (eq. 2)."""

        def value(node: EdgeNode) -> float:
            data = self._full_data(node)
            return fused_model_loss(
                self.model, params, data.x, data.y, self.loss_fn
            ).item()

        return weighted_node_average(nodes, value)

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        return {"global_loss": self.global_loss(params, nodes)}


class ProxStrategy(SgdStrategy):
    """FedProx: SGD on a proximally-regularized local loss.

    Each node minimizes ``L_i(θ) + (μ/2)‖θ − θ_anchor‖²`` where the anchor
    is the last aggregated global model — updated via :meth:`on_aggregate`.
    """

    name = "fedprox"
    log_uplink = False

    def begin_fit(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        self._anchor = detach(params)

    def on_aggregate(
        self, aggregated: Params, nodes: Sequence[EdgeNode]
    ) -> None:
        self._anchor = detach(aggregated)

    def _update(self, params: Params, gradient: Params) -> Params:
        """One proximal step; the shared anchor broadcasts over a leading
        node axis, so a stacked step is the serial step per slice."""
        cfg = self.config
        return {
            name: Tensor(
                p.data
                - cfg.learning_rate
                * (
                    gradient[name].data
                    + cfg.mu_prox * (p.data - self._anchor[name].data)
                )
            )
            for name, p in params.items()
        }


# ----------------------------------------------------------------------
# Meta-learning strategies
# ----------------------------------------------------------------------
class MetaStrategy(LocalStrategy):
    """FedML / Algorithm 1: one MAML meta-step per local iteration."""

    name = "fedml"
    log_uplink = True

    def _extra_test_sets(self, node: EdgeNode) -> List[Dataset]:
        """Outer-loss sets beyond the node's test set (default: none)."""
        return []

    def _meta_gradient_fn(
        self, node: EdgeNode, extras: Sequence[Dataset]
    ) -> MetaGradientFn:
        """The node's meta-gradient function, held across its block.

        One slot, since executors run a node's steps back to back; keyed
        on the identity of the node and its datasets (held alive by the
        key) plus the fast-path switch, so it never serves a function
        built for other data or another fast-path state."""
        key = (fastpath.enabled(), node, node.split, *extras)
        held = self.__dict__.get("_held")
        if held is None or [*map(id, held[0])] != [*map(id, key)]:
            cfg = self.config
            fn = meta_gradient_fn(
                self.model, node.split, cfg.alpha, inner_steps=cfg.inner_steps,
                loss_fn=self.loss_fn, first_order=cfg.first_order,
                extra_test_sets=extras,
            )
            held = self._held = (key, fn)
        return held[1]

    def local_step(self, node: EdgeNode) -> float:
        """One local meta-update (eq. 3 + eq. 4) on ``node``."""
        assert node.params is not None
        extras = self._extra_test_sets(node)
        gradient, value = self._meta_gradient_fn(node, extras)(node.params)
        node.params = add_scaled(node.params, gradient, -self.config.beta)
        node.record_local_step(gradient_evals=2 + len(extras))
        return value

    def release_node(self, node: EdgeNode) -> None:
        self.__dict__.pop("_held", None)

    supports_vectorized = True

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        if not supports_batched_loss(self.model, self.loss_fn):
            return None
        return _split_shapes(node.split)

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        cfg = self.config
        train, test = _stacked_split(nodes)
        stacked = stack_params([node.params for node in nodes])
        names = sorted(stacked)
        # The closed-form kernel, its inputs hoisted out of the T0 loop;
        # whatever it declines runs the stacked tape below.
        kernel = batched_meta_gradient(
            self.model, train, [test], cfg.alpha, self.loss_fn,
            inner_steps=cfg.inner_steps, first_order=cfg.first_order,
        )
        for _ in range(steps):
            if kernel is not None:
                gradient, _ = kernel(stacked)
            else:
                gradient = self._stacked_tape_gradient(
                    stacked, names, train, test
                )
            stacked = {
                name: Tensor(
                    stacked[name].data + (-cfg.beta) * gradient[name].data
                )
                for name in names
            }
        for node, tree in zip(nodes, unstack_params(stacked, len(nodes))):
            # Intentional per-node loop: state fan-out and step accounting.
            node.params = tree
            for _ in range(steps):
                node.record_local_step()

    def _stacked_tape_gradient(
        self,
        stacked: Params,
        names: Sequence[str],
        train: Tuple[np.ndarray, np.ndarray],
        test: Tuple[np.ndarray, np.ndarray],
    ) -> Params:
        """One stacked meta-gradient through the autodiff tape.

        The inner loss's node-axis ops carry differentiable closure VJPs,
        so ``create_graph=True`` keeps the exact second-order graph for
        the outer backward.
        """
        cfg = self.config
        theta = require_grad(stacked)
        current: Params = theta
        for _ in range(cfg.inner_steps):
            inner_vec = batched_model_loss(self.model, current, *train)
            inner_grads = grad(
                ops.sum_(inner_vec),
                [current[n] for n in names],
                create_graph=not cfg.first_order,
                allow_unused=True,
            )
            current = {
                name: (
                    current[name] if g is None else current[name] - cfg.alpha * g
                )
                for name, g in zip(names, inner_grads)
            }
        outer_vec = batched_model_loss(self.model, current, *test)
        outer_grads = grad(
            ops.sum_(outer_vec), [theta[n] for n in names], allow_unused=True
        )
        return {
            name: (
                Tensor(np.zeros_like(theta[name].data)) if g is None else g
            )
            for name, g in zip(names, outer_grads)
        }

    def global_meta_loss(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> float:
        """``G(theta) = Σ ω_i G_i(theta)`` over the given nodes.

        Nodes whose batches share shapes form a group, and one call of the
        exact kernel on θ broadcast over the group yields every ``G_i`` in
        it; nodes the kernel declines run the tape's :func:`meta_loss`.  The
        weighted reduce runs in node order either way, on every executor.
        """
        cfg = self.config
        inner_steps = getattr(cfg, "inner_steps", 1)
        groups: Dict[Tuple, List[EdgeNode]] = {}
        for node in nodes:
            groups.setdefault(_split_shapes(node.split), []).append(node)
        values: Dict[int, float] = {}
        for group in groups.values():
            values.update(self._kernel_meta_losses(params, group, inner_steps))

        def value(node: EdgeNode) -> float:
            if node.node_id in values:
                return values[node.node_id]
            return meta_loss(
                self.model, params, node.split, cfg.alpha,
                inner_steps=inner_steps, loss_fn=self.loss_fn,
            )

        return weighted_node_average(nodes, value)

    def _kernel_meta_losses(
        self, params: Params, group: Sequence[EdgeNode], inner_steps: int
    ) -> Dict[int, float]:
        """Each node's ``G_i(θ)`` by ``node_id``, or ``{}`` if the kernel
        declines the group.

        Built per evaluation, never held: the data are the group's, not a
        training block's.  Exact (``first_order=False``) whatever the
        config, since a loss value does not depend on that switch.
        """
        train, test = _stacked_split(group)
        kernel = batched_meta_gradient(
            self.model, train, [test], self.config.alpha, self.loss_fn,
            inner_steps=inner_steps,
        )
        shapes = {name: t.shape for name, t in params.items()}
        if kernel is None or shapes != _param_shapes(self.model):
            return {}
        theta = {
            name: Tensor(np.broadcast_to(t.data, (len(group), *t.shape)))
            for name, t in params.items()
        }
        _, losses = kernel(theta)
        return {node.node_id: float(loss) for node, loss in zip(group, losses)}

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        return {"global_meta_loss": self.global_meta_loss(params, nodes)}


def _split_shapes(split: NodeSplit) -> Tuple:
    """What lets nodes' batches stack: their shapes and the input kind."""
    train, test = split.train, split.test
    x = np.asarray(train.x)
    return (
        x.shape,
        x.dtype.kind,
        np.asarray(train.y).shape,
        np.asarray(test.x).shape,
        np.asarray(test.y).shape,
    )


def _stacked_split(
    nodes: Sequence[EdgeNode],
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """The nodes' train and test batches as stacked ``(x, y)`` pairs."""
    def stack(sets: Sequence[Dataset]) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.stack([np.asarray(d.x) for d in sets]),
            np.stack([np.asarray(d.y) for d in sets]),
        )

    return (
        stack([node.split.train for node in nodes]),
        stack([node.split.test for node in nodes]),
    )


def merge_meta_sgd_trees(params: Params, log_alpha: Params) -> Params:
    """Pack (θ, log α) into one tree so the platform aggregates both."""
    merged = {f"theta::{n}": t for n, t in params.items()}
    merged.update({f"logalpha::{n}": t for n, t in log_alpha.items()})
    return merged


def split_meta_sgd_trees(merged: Params) -> Tuple[Params, Params]:
    """Inverse of :func:`merge_meta_sgd_trees`."""
    params = {
        n[len("theta::"):]: t for n, t in merged.items() if n.startswith("theta::")
    }
    log_alpha = {
        n[len("logalpha::"):]: t
        for n, t in merged.items()
        if n.startswith("logalpha::")
    }
    return params, log_alpha


class MetaSgdStrategy(LocalStrategy):
    """Meta-SGD: learnable per-parameter inner rates, trained federatedly.

    Node parameter trees hold both θ and the log-rates; aggregation
    averages both (the platform is agnostic to what the tree contains).
    """

    name = "meta-sgd"

    def initial_params(
        self, rng: np.random.Generator, init_params: Optional[Params]
    ) -> Params:
        cfg = self.config
        params = super().initial_params(rng, init_params)
        log_alpha = {
            name: Tensor(np.full(t.shape, np.log(cfg.alpha_init)))
            for name, t in params.items()
        }
        return merge_meta_sgd_trees(params, log_alpha)

    def adapt(
        self, params: Params, log_alpha: Params, split: NodeSplit
    ) -> Params:
        """One learned-rate inner step (detached, for evaluation)."""
        theta = require_grad(params)
        loss = fused_model_loss(
            self.model, theta, split.train.x, split.train.y, self.loss_fn
        )
        names = sorted(theta)
        grads = grad(loss, [theta[n] for n in names], allow_unused=True)
        phi: Params = {}
        for name, g in zip(names, grads):
            rate = np.exp(log_alpha[name].data)
            if g is None:
                phi[name] = Tensor(theta[name].data.copy())
            else:
                phi[name] = Tensor(theta[name].data - rate * g.data)
        return phi

    def meta_loss(
        self, params: Params, log_alpha: Params, split: NodeSplit
    ) -> float:
        phi = self.adapt(params, log_alpha, split)
        return fused_model_loss(
            self.model, phi, split.test.x, split.test.y, self.loss_fn
        ).item()

    def local_step(self, node: EdgeNode) -> float:
        assert node.params is not None
        cfg = self.config
        params, log_alpha = split_meta_sgd_trees(node.params)
        theta = {
            n: Tensor(t.data, requires_grad=True) for n, t in params.items()
        }
        log_a = {
            n: Tensor(t.data, requires_grad=True) for n, t in log_alpha.items()
        }

        inner = self.loss_fn(
            self.model.apply(theta, node.split.train.x), node.split.train.y
        )
        names = sorted(theta)
        inner_grads = grad(
            inner, [theta[n] for n in names], create_graph=True, allow_unused=True
        )
        phi: Params = {}
        for name, g in zip(names, inner_grads):
            if g is None:
                phi[name] = theta[name]
            else:
                phi[name] = theta[name] - ops.exp(log_a[name]) * g
        # The meta derivative below is create_graph=False, so the fused
        # composite applies (the inner loss above must stay unfused: it is
        # differentiated with create_graph=True).
        outer = fused_model_loss(
            self.model, phi, node.split.test.x, node.split.test.y, self.loss_fn
        )

        leaves = [theta[n] for n in names] + [log_a[n] for n in names]
        meta_grads = grad(outer, leaves, allow_unused=True)
        updated: Params = {}
        for i, name in enumerate(names):
            g_theta = meta_grads[i]
            g_alpha = meta_grads[len(names) + i]
            updated[f"theta::{name}"] = Tensor(
                theta[name].data
                - (0.0 if g_theta is None else cfg.beta * g_theta.data)
            )
            updated[f"logalpha::{name}"] = Tensor(
                log_a[name].data
                - (0.0 if g_alpha is None else cfg.beta * g_alpha.data)
            )
        node.params = updated
        node.record_local_step()
        return outer.item()

    def global_meta_loss(
        self, merged: Params, nodes: Sequence[EdgeNode]
    ) -> float:
        params, log_alpha = split_meta_sgd_trees(merged)
        return weighted_node_average(
            nodes,
            lambda node: self.meta_loss(params, log_alpha, node.split),
        )

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        return {"global_meta_loss": self.global_meta_loss(params, nodes)}


class ReptileStrategy(LocalStrategy):
    """Federated Reptile: move θ toward multi-step SGD solutions."""

    name = "reptile"
    log_initial = False

    def _sgd_steps(
        self, params: Params, data: Dataset, steps: int
    ) -> Params:
        cfg = self.config
        current = detach(params)
        for _ in range(steps):
            gradient = loss_gradient(self.model, current, data, self.loss_fn)
            current = {
                name: Tensor(
                    current[name].data - cfg.inner_lr * gradient[name].data
                )
                for name in current
            }
        return current

    def local_step(self, node: EdgeNode) -> float:
        assert node.params is not None
        cfg = self.config
        data = node_training_data(node)
        phi = self._sgd_steps(node.params, data, cfg.inner_steps)
        node.params = {
            name: Tensor(
                node.params[name].data
                + cfg.outer_lr * (phi[name].data - node.params[name].data)
            )
            for name in node.params
        }
        node.record_local_step(gradient_evals=cfg.inner_steps)
        return 0.0

    def global_meta_loss(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> float:
        cfg = self.config
        return weighted_node_average(
            nodes,
            lambda node: meta_loss(
                self.model, params, node.split, cfg.inner_lr,
                loss_fn=self.loss_fn,
            ),
        )

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        return {"global_meta_loss": self.global_meta_loss(params, nodes)}


# ----------------------------------------------------------------------
# Adversarial strategies
# ----------------------------------------------------------------------
class AdmlStrategy(MetaStrategy):
    """ADML: FGSM-perturbed inner update, clean + perturbed outer loss.

    Perturbations are regenerated against the current model every local
    step — contrast :class:`AdversarialStrategy`, which amortizes them over
    a growing DRO dataset.
    """

    name = "adml"
    log_uplink = False
    # Adversarial perturbations are regenerated per node per step; the
    # plain stacked meta-step inherited from MetaStrategy would silently
    # drop them, so this strategy runs serial (executor falls back).
    supports_vectorized = False

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        return None

    def _fgsm(self, node: EdgeNode, data: Dataset) -> Dataset:
        """``data`` FGSM-perturbed against the node's current model."""
        assert node.params is not None
        x = fgsm(
            self.model, node.params, data.x, data.y,
            xi=self.config.epsilon, loss_fn=self.loss_fn,
        )
        return Dataset(x=x, y=data.y.copy())

    def local_step(self, node: EdgeNode) -> float:
        assert node.params is not None
        cfg = self.config
        train, test = node.split.train, node.split.test
        gradient, value = meta_gradient(
            self.model, node.params,
            NodeSplit(train=self._fgsm(node, train), test=test), cfg.alpha,
            loss_fn=self.loss_fn, first_order=cfg.first_order,
            extra_test_sets=[self._fgsm(node, test)],
        )
        node.params = add_scaled(node.params, gradient, -cfg.beta)
        node.record_local_step(gradient_evals=4)  # 2 attacks + inner + outer
        return value


class AdversarialStrategy(MetaStrategy):
    """Robust FedML / Algorithm 2: DRO outer loss over a grown ``D^adv``.

    The local step is a MAML meta-step whose outer loss adds the node's
    adversarial dataset (eq. 14); :meth:`on_block_end` implements the
    generation schedule (every ``N0·T0`` iterations, at most ``R`` times)
    by solving the Wasserstein inner supremum with ``Ta`` ascent steps.
    The attack machinery is shared with :class:`AdmlStrategy` — both
    perturb in the model's continuous feature space.
    """

    name = "robust-fedml"
    log_uplink = False
    # The DRO outer loss depends on each node's grown (ragged) D^adv; the
    # inherited stacked meta-step would drop it, so run serial.
    supports_vectorized = False

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        return None

    def init_node_state(self, node: EdgeNode) -> None:
        # Token models: embed the node's data once so clean and adversarial
        # samples share one continuous feature space.
        if np.asarray(node.split.train.x).dtype.kind in "iu":
            node.split = NodeSplit(
                train=self._as_continuous(node.split.train),
                test=self._as_continuous(node.split.test),
            )

    def _as_continuous(self, data: Dataset) -> Dataset:
        """Map integer-token inputs into the (frozen) embedding space."""
        from ..attacks.common import embed_inputs

        features = embed_inputs(self.model, data.x)
        return Dataset(x=features, y=data.y)

    def begin_fit(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        self._generation_rounds = {node.node_id: 0 for node in nodes}

    def _extra_test_sets(self, node: EdgeNode) -> List[Dataset]:
        """The robust outer loss (eq. 13 + eq. 14) adds ``D_i^adv``."""
        if node.adversarial is not None and len(node.adversarial) > 0:
            return [node.adversarial]
        return []

    def generate_adversarial(
        self, node: EdgeNode, rng: np.random.Generator
    ) -> None:
        """Algorithm 2, lines 15–21: grow ``D_i^adv`` by |D_i^test| samples."""
        assert node.params is not None
        cfg = self.config
        combined = node.combined_test_set()
        count = len(node.split.test)
        chosen = rng.integers(0, len(combined), size=count)
        base = combined.subset(chosen)

        # Perturbations are constructed against the *adapted* model phi_i^t
        # (eq. 12 evaluates the loss at phi_i, not theta_i).
        phi = inner_adapt(
            self.model,
            node.params,
            node.split.train,
            cfg.alpha,
            steps=cfg.inner_steps,
            loss_fn=self.loss_fn,
            create_graph=False,
        )
        perturbed = wasserstein_ascent(
            self.model,
            phi,
            base.x,
            base.y,
            lam=cfg.lam,
            nu=cfg.nu,
            steps=cfg.ta,
            loss_fn=self.loss_fn,
        )
        fresh = Dataset(x=perturbed, y=base.y.copy())
        if node.adversarial is None or len(node.adversarial) == 0:
            node.adversarial = fresh
        else:
            node.adversarial = node.adversarial.concat(fresh)

    def on_block_end(
        self,
        t: int,
        nodes: Sequence[EdgeNode],
        rng: np.random.Generator,
        telemetry: Any,
    ) -> None:
        self.__dict__.pop("_held", None)  # the block ends; D^adv may grow
        cfg = self.config
        if t % (cfg.n0 * cfg.t0) != 0:
            return
        adv_total = telemetry.counter(
            "fl_adversarial_samples_total", algorithm=self.name
        )
        with telemetry.span("generate_adversarial"):
            for node in nodes:
                if self._generation_rounds[node.node_id] < cfg.r_max:
                    before = (
                        0 if node.adversarial is None else len(node.adversarial)
                    )
                    self.generate_adversarial(node, rng)
                    self._generation_rounds[node.node_id] += 1
                    assert node.adversarial is not None
                    adv_total.inc(len(node.adversarial) - before)

    def checkpoint_extras(self, nodes: Sequence[EdgeNode]) -> Params:
        """Persist each node's grown ``D_i^adv`` beside the global tree."""
        extras: Params = {}
        for node in nodes:
            if node.adversarial is not None and len(node.adversarial) > 0:
                extras[f"adv::{node.node_id}::x"] = Tensor(
                    np.asarray(node.adversarial.x, dtype=np.float64)
                )
                extras[f"adv::{node.node_id}::y"] = Tensor(
                    np.asarray(node.adversarial.y, dtype=np.float64)
                )
        return extras

    def restore_extras(
        self, extras: Params, nodes: Sequence[EdgeNode]
    ) -> None:
        for node in nodes:
            x_key = f"adv::{node.node_id}::x"
            y_key = f"adv::{node.node_id}::y"
            if x_key in extras and y_key in extras:
                # Labels round-trip through the float64 wire format; they
                # are small integers, so the cast back is exact.
                node.adversarial = Dataset(
                    x=extras[x_key].data.copy(),
                    y=extras[y_key].data.astype(np.int64),
                )

    def checkpoint_state(self, nodes: Sequence[EdgeNode]) -> Dict[str, Any]:
        return {
            "generation_rounds": {
                str(node_id): int(count)
                for node_id, count in self._generation_rounds.items()
            }
        }

    def restore_state(
        self, state: Dict[str, Any], nodes: Sequence[EdgeNode]
    ) -> None:
        recorded = state.get("generation_rounds", {})
        self._generation_rounds = {
            node.node_id: int(recorded.get(str(node.node_id), 0))
            for node in nodes
        }

    def _adversarial_count(self, nodes: Sequence[EdgeNode]) -> float:
        return float(
            sum(
                0 if n.adversarial is None else len(n.adversarial)
                for n in nodes
            )
        )

    def evaluate(
        self, params: Params, nodes: Sequence[EdgeNode]
    ) -> Dict[str, float]:
        return {
            "global_meta_loss": self.global_meta_loss(params, nodes),
            "adversarial_samples": self._adversarial_count(nodes),
        }
