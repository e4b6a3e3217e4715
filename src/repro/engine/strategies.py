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
anchor, Robust FedML's generation counters, the meta block's prepared
kernels) is rebuilt by ``begin_fit`` each run, and what would outlive the
fit (the kernels) is dropped by ``end_fit``; per-node caches are dropped
in ``release_node``.

FedAvg, FedProx, FedML (exact or FOMAML), Robust FedML and Meta-SGD
each have one step on a stack of nodes, ``local_block_vectorized``,
which every node the closed-form kernels serve runs under either
executor (a serial node is a stack of one).  ``local_step`` is the per-node reference path for the rest: a
node ``vectorized_signature`` returns ``None`` for, and every node of a
strategy without ``supports_vectorized``.

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

from typing import Any, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..attacks.fgsm import fgsm
from ..autodiff import Tensor, fastpath, grad, ops
from ..attacks.wasserstein import wasserstein_ascent
from ..data.dataset import Dataset, FederatedDataset, NodeSplit
from ..federated.node import EdgeNode, build_nodes
from ..nn.batched import (
    Arrays,
    Kernel,
    _param_shapes,
    batch_key,
    batched_loss_gradient,
    batched_meta_gradient,
    node_loss_gradient,
    stack_params,
    supports_batched_loss,
    unstack_params,
)
from ..nn.fused import fused_model_loss
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params, add_scaled, detach, require_grad
from ..core.maml import LossFn, inner_adapt, meta_gradient, meta_loss
from .evaluation import loss_gradient, node_training_data, weighted_node_average

#: a parameter tree's leaf: a tensor, or a stack's raw array
_Leaf = TypeVar("_Leaf")

__all__ = [
    "LocalStrategy",
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
    #: :meth:`local_block_vectorized`, which both executors run for every
    #: node with a :meth:`vectorized_signature`; everything else runs
    #: :meth:`local_step` node by node.  A subclass that overrides
    #: ``local_step`` of a stacking strategy must set this to ``False``
    #: (or change its block too), or the override never runs.
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

    def end_fit(self) -> None:
        """Drop per-fit state the fit no longer needs, once it returns or
        raises (default: nothing)."""

    # -- the local update ----------------------------------------------
    def local_step(self, node: EdgeNode) -> float:
        """One local iteration on ``node``; returns the local loss value."""
        raise NotImplementedError

    # -- vectorized (stacked) execution ---------------------------------
    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        """Grouping key for stacked execution, or ``None`` for ``local_step``.

        Nodes with equal signatures may share one stacked block; the key
        must capture everything that makes their buffers stackable (data
        shapes, dtypes), and be ``None`` wherever the block cannot run
        the node.  The base implementation opts every node out.
        """
        return None

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        """Run ``steps`` local iterations for all ``nodes`` as one stack.

        Called only when ``supports_vectorized`` is set, on a group of
        nodes with equal :meth:`vectorized_signature`: one node per group
        on the ``SerialExecutor``, one signature per group on the
        ``VectorizedExecutor``.  ``rngs[i]`` is node ``i``'s deterministic
        ``[seed, block, node]`` generator, the stream ``local_step`` would
        see bound.
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
        :class:`MetaStrategy`'s prepared kernels) must release it here or
        the cache grows with every node ever sampled — exactly the O(fleet)
        residency the lazy registry exists to avoid.  Default: nothing to
        release.
        """


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

    def local_step(self, node: EdgeNode) -> float:
        assert node.params is not None
        gradient = loss_gradient(
            self.model, node.params, node_training_data(node), self.loss_fn
        )
        node.params = self._update(node.params, gradient)
        node.record_local_step(gradient_evals=1)
        return 0.0

    def _update(self, params: Params, gradient: Params) -> Params:
        """One SGD step; ``params`` may carry a leading node axis."""
        return add_scaled(params, gradient, -self.config.learning_rate)

    supports_vectorized = True

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        """The shapes of the node's train and test sets, which the block
        joins into its full dataset, or ``None`` where the first-order
        kernel declines: the fast path off, a model or loss it does not
        take, or a batch it rejects."""
        if not fastpath.enabled() or not supports_batched_loss(
            self.model, self.loss_fn
        ):
            return None
        keys = tuple(
            batch_key(self.model, d.x, d.y)
            for d in (node.split.train, node.split.test)
        )
        return None if None in keys else keys

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        # Each node's full dataset: the stacked train and test sets joined
        # on the sample axis, the arrays stacking each node's
        # ``D_i^train ∪ D_i^test`` gives.
        train = _stacked([node.split.train for node in nodes])
        test = _stacked([node.split.test for node in nodes])
        batch = (
            np.concatenate([train[0], test[0]], axis=1),
            np.concatenate([train[1], test[1]], axis=1),
        )
        stacked = stack_params([node.params for node in nodes])
        # The first-order kernel, its inputs hoisted out of the steps.
        kernel = _accepted(
            batched_loss_gradient(self.model, batch, self.loss_fn)
        )
        for _ in range(steps):
            theta = {n: t.data for n, t in stacked.items()}
            grads = kernel(theta, gradient=True).gradient
            gradient = {name: Tensor(g) for name, g in grads.items()}
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

    def global_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        """Weighted empirical loss ``L_w(theta)`` (eq. 2)."""

        def value(node: EdgeNode) -> float:
            data = node_training_data(node)
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
class _PreparedKernels:
    """Each stacked group's prepared meta kernel, kept for one fit.

    A kernel holds its group's stacked sets, embedded features, one-hot
    labels, ``[X_out; X_in]`` and Gram block, all fixed while the nodes
    keep their splits, so a later block of the group only stacks θ and
    steps it.  An entry is keyed on the group's node ids, in order, and
    serves only while every node still holds the very ``NodeSplit`` it
    was built from.  Storing an entry drops every entry that shares a
    node with it, so a node is in at most one entry however group
    membership changes between blocks.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, ...], Tuple[Tuple[NodeSplit, ...], Kernel]] = {}
        self._key_of: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, nodes: Sequence[EdgeNode]) -> Optional[Kernel]:
        """The group's kernel, or ``None`` if it has none or it is stale."""
        entry = self._entries.get(tuple(node.node_id for node in nodes))
        if entry is None:
            return None
        splits, kernel = entry
        if all(node.split is split for node, split in zip(nodes, splits)):
            return kernel
        return None

    def put(self, nodes: Sequence[EdgeNode], kernel: Kernel) -> None:
        self.drop(nodes)
        key = tuple(node.node_id for node in nodes)
        self._entries[key] = (tuple(node.split for node in nodes), kernel)
        for node_id in key:
            self._key_of[node_id] = key

    def drop(self, nodes: Sequence[EdgeNode]) -> None:
        """Drop every entry that holds one of ``nodes``."""
        for node in nodes:
            key = self._key_of.get(node.node_id)
            if key is not None:
                del self._entries[key]
                for node_id in key:
                    del self._key_of[node_id]


class MetaStrategy(LocalStrategy):
    """FedML / Algorithm 1: one MAML meta-step per local iteration."""

    name = "fedml"
    log_uplink = True

    def __init__(
        self, model: Model, config: Any, loss_fn: LossFn = cross_entropy
    ) -> None:
        super().__init__(model, config, loss_fn)
        self._kernels = _PreparedKernels()

    def begin_fit(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        """A fit, resumed or not, prepares its groups' kernels afresh."""
        self._kernels = _PreparedKernels()

    def end_fit(self) -> None:
        """The kernels are the fit's: none outlives it."""
        self._kernels = _PreparedKernels()

    def release_node(self, node: EdgeNode) -> None:
        self._kernels.drop([node])

    def _extra_test_sets(self, node: EdgeNode) -> List[Dataset]:
        """Outer-loss sets beyond the node's test set (default: none)."""
        return []

    def _outer_sets(self, node: EdgeNode) -> List[Dataset]:
        """The node's outer-loss sets: its test set and the extras."""
        return [node.split.test, *self._extra_test_sets(node)]

    def local_step(self, node: EdgeNode) -> float:
        """One local meta-update (eq. 3 + eq. 4) on ``node``."""
        assert node.params is not None
        cfg = self.config
        extras = self._extra_test_sets(node)
        gradient, value = meta_gradient(
            self.model, node.params, node.split, cfg.alpha,
            inner_steps=cfg.inner_steps, loss_fn=self.loss_fn,
            first_order=cfg.first_order, extra_test_sets=extras,
        )
        node.params = add_scaled(node.params, gradient, -cfg.beta)
        node.record_local_step(gradient_evals=2 + len(extras))
        return value

    supports_vectorized = True

    def vectorized_signature(self, node: EdgeNode) -> Optional[Tuple]:
        """The shapes of the node's train and outer sets, or ``None``
        where the meta kernel declines: the fast path off,
        ``inner_steps != 1``, a model or loss it does not take, or a
        batch it rejects."""
        if (
            getattr(self.config, "inner_steps", 1) != 1
            or not fastpath.enabled()
            or not supports_batched_loss(self.model, self.loss_fn)
        ):
            return None
        keys = tuple(
            batch_key(self.model, d.x, d.y)
            for d in (node.split.train, *self._outer_sets(node))
        )
        return None if None in keys else keys

    def local_block_vectorized(
        self,
        nodes: Sequence[EdgeNode],
        steps: int,
        rngs: Sequence[np.random.Generator],
    ) -> None:
        kernel = self._group_kernel(nodes)
        stacked = stack_params([node.params for node in nodes])
        # The block owns the stack's arrays, so each step updates them in
        # place.
        arrays = {name: t.data for name, t in stacked.items()}
        for _ in range(steps):
            self._step(kernel, arrays)
        evals = 1 + len(self._outer_sets(nodes[0]))
        for node, tree in zip(nodes, unstack_params(stacked, len(nodes))):
            # Intentional per-node loop: state fan-out and step accounting.
            node.params = tree
            for _ in range(steps):
                node.record_local_step(gradient_evals=evals)

    def _step(self, kernel: Kernel, arrays: Arrays) -> None:
        """One meta-step of the stack, in place: g ← −β·g, θ ← θ + g is
        θ + (−β)·g, bit for bit."""
        for name, g in kernel(arrays, gradient=True).gradient.items():
            g *= -self.config.beta
            arrays[name] += g

    def _build_kernel(
        self,
        train: Tuple[np.ndarray, np.ndarray],
        tests: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> Optional[Kernel]:
        """The config's meta kernel over stacked sets."""
        cfg = self.config
        return batched_meta_gradient(
            self.model, train, tests, cfg.alpha, self.loss_fn,
            inner_steps=cfg.inner_steps, first_order=cfg.first_order,
        )

    def _group_kernel(self, nodes: Sequence[EdgeNode]) -> Kernel:
        """The group's closed-form kernel, prepared once per fit.

        A group whose outer sets are the nodes' own test sets keeps its
        kernel from the block that builds it to the end of the fit, when
        ``end_fit`` drops it (or until a node's split changes, or
        ``release_node`` evicts one).  A group with extra outer sets
        (Robust FedML's ``D^adv``) builds its kernel every block and
        drops its nodes' entries, so a node that gains ``D^adv`` never
        runs its earlier kernel again.
        """
        own = not any(self._extra_test_sets(node) for node in nodes)
        if own:
            kernel = self._kernels.get(nodes)
            if kernel is not None:
                return kernel
        else:
            self._kernels.drop(nodes)
        train = _stacked([node.split.train for node in nodes])
        # Each outer set stacked across the group; equal signatures give
        # every node the same number of sets of the same shapes.
        tests = [
            _stacked(sets)
            for sets in zip(*(self._outer_sets(node) for node in nodes))
        ]
        kernel = _accepted(self._build_kernel(train, tests))
        if own:
            self._kernels.put(nodes, kernel)
        return kernel

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
        config, since a loss value does not depend on that switch; the
        call asks for the losses alone.
        """
        train = _stacked([node.split.train for node in group])
        test = _stacked([node.split.test for node in group])
        kernel = batched_meta_gradient(
            self.model, train, [test], self.config.alpha, self.loss_fn,
            inner_steps=inner_steps,
        )
        shapes = {name: t.shape for name, t in params.items()}
        if kernel is None or shapes != _param_shapes(self.model):
            return {}
        theta = {
            name: np.broadcast_to(t.data, (len(group), *t.shape))
            for name, t in params.items()
        }
        losses = kernel(theta, losses=True).losses
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


def _stacked(sets: Sequence[Dataset]) -> Tuple[np.ndarray, np.ndarray]:
    """One same-shaped dataset per node as a stacked ``(x, y)`` pair
    (``np.array`` builds ``np.stack``'s array at a fraction of its
    per-call cost, which a one-node group pays every block)."""
    return np.array([d.x for d in sets]), np.array([d.y for d in sets])


def _accepted(kernel: Optional[Any]) -> Any:
    """A stacked block's kernel, which the group's signatures promise.

    Signatures read shapes and dtypes only, so the kernel can still
    decline labels outside the model's classes; the tape rejects those
    too, so the block raises.
    """
    if kernel is None:
        raise ValueError(
            "the closed-form kernel declined a stacked block: labels "
            "outside the model's classes, or nodes without a signature"
        )
    return kernel


def merge_meta_sgd_trees(params: Params, log_alpha: Params) -> Params:
    """Pack (θ, log α) into one tree so the platform aggregates both."""
    merged = {f"theta::{n}": t for n, t in params.items()}
    merged.update({f"logalpha::{n}": t for n, t in log_alpha.items()})
    return merged


def split_meta_sgd_trees(
    merged: Dict[str, _Leaf]
) -> Tuple[Dict[str, _Leaf], Dict[str, _Leaf]]:
    """Inverse of :func:`merge_meta_sgd_trees`; a stack's raw arrays
    split the same way."""
    params = {
        n[len("theta::"):]: t for n, t in merged.items() if n.startswith("theta::")
    }
    log_alpha = {
        n[len("logalpha::"):]: t
        for n, t in merged.items()
        if n.startswith("logalpha::")
    }
    return params, log_alpha


class MetaSgdStrategy(MetaStrategy):
    """Meta-SGD: learnable per-parameter inner rates, trained federatedly.

    Node parameter trees hold both θ and the log-rates; aggregation
    averages both (the platform is agnostic to what the tree contains).
    The stacked block is :class:`MetaStrategy`'s, grouped by its
    signature, with a step that passes each node's rates to the meta
    kernel; ``local_step`` is the tape's learned-rate step for the nodes
    without a signature.
    """

    name = "meta-sgd"
    log_uplink = False

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

    def _build_kernel(
        self,
        train: Tuple[np.ndarray, np.ndarray],
        tests: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> Optional[Kernel]:
        # Every call passes the nodes' rates, so the scalar α is unread.
        return batched_meta_gradient(
            self.model, train, tests, self.config.alpha_init, self.loss_fn
        )

    def _step(self, kernel: Kernel, arrays: Arrays) -> None:
        """One learned-rate meta-step of the merged stack, in place on
        θ and the log-rates."""
        theta, log_alpha = split_meta_sgd_trees(arrays)
        rates = {name: np.exp(a) for name, a in log_alpha.items()}
        out = kernel(theta, rates, gradient=True, rate_gradient=True)
        for tree, grads in (
            (theta, out.gradient), (log_alpha, out.rate_gradient)
        ):
            for name, g in grads.items():
                g *= -self.config.beta
                tree[name] += g

    def adapt(
        self, params: Params, log_alpha: Params, split: NodeSplit
    ) -> Params:
        """One learned-rate inner step (detached, for evaluation); the
        first-order kernel forms ``∇L`` where it applies, else the tape."""
        train = split.train
        built = node_loss_gradient(
            self.model, params, train.x, train.y, self.loss_fn
        )
        if built is not None:
            kernel, stacked = built
            grads = {
                name: g[0]
                for name, g in kernel(stacked, gradient=True).gradient.items()
            }
        else:
            theta = require_grad(params)
            loss = fused_model_loss(
                self.model, theta, train.x, train.y, self.loss_fn
            )
            names = sorted(theta)
            taped = grad(loss, [theta[n] for n in names], allow_unused=True)
            grads = {n: g.data for n, g in zip(names, taped) if g is not None}
        return {
            name: Tensor(t.data - np.exp(log_alpha[name].data) * grads[name])
            if name in grads else Tensor(t.data.copy())
            for name, t in params.items()
        }

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
    # drop them, so every node runs this local_step.
    supports_vectorized = False

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
    adversarial dataset (eq. 14) as a second outer set, so its stacked
    block is :class:`MetaStrategy`'s and ``D^adv``'s shape joins the
    signature; :meth:`on_block_end` implements the generation schedule
    (every ``N0·T0`` iterations, at most ``R`` times) by solving the
    Wasserstein inner supremum with ``Ta`` ascent steps.  The attack
    machinery is shared with :class:`AdmlStrategy` — both perturb in the
    model's continuous feature space.
    """

    name = "robust-fedml"
    log_uplink = False

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
        super().begin_fit(params, nodes)
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
                # Labels round-trip through the float64 wire format, which
                # holds class ids and real-valued targets exactly; D^adv
                # copies the clean test labels, so it takes their dtype.
                node.adversarial = Dataset(
                    x=extras[x_key].data.copy(),
                    y=extras[y_key].data.astype(node.split.test.y.dtype),
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
