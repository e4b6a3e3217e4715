"""Asynchronous federated meta-learning with staleness-aware mixing.

The synchronous Algorithm 1 waits for the slowest node every round — at the
edge (heterogeneous devices, flaky links) that wall-clock price is steep
(see :mod:`repro.federated.simulation`).  The standard systems remedy is
asynchronous aggregation (FedAsync, Xie et al. 2019): the platform applies
each node's contribution the moment it arrives,

    theta_global ← (1 − η_s) · theta_global + η_s · theta_node,
    η_s = η / (1 + staleness)^a,

discounting by how many global versions elapsed since the node last
synchronized.  Here the node contribution is a *meta*-update: each node
runs ``t0`` local FedML steps (eqs. 3–4) between uploads.

The simulation is event-driven: device compute times come from
:class:`~repro.federated.simulation.DeviceProfile`, so fast devices
contribute more often — exactly the behaviour synchronous rounds forbid.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Tensor
from ..data.dataset import FederatedDataset
from ..federated.node import EdgeNode, build_nodes
from ..federated.simulation import DeviceProfile
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params, add_scaled, detach
from ..obs.telemetry import Telemetry, resolve
from ..utils.logging import RunLogger
from ..utils.serialization import payload_bytes
from .maml import LossFn, meta_gradient, meta_loss, node_meta_kernel

__all__ = ["AsyncFedMLConfig", "AsyncFedMLResult", "AsyncFedML"]


@dataclass(frozen=True)
class AsyncFedMLConfig:
    """Hyper-parameters of the asynchronous variant.

    ``mixing`` is the base server mixing rate η; ``staleness_power`` the
    polynomial discount exponent a (0 disables staleness discounting).
    """

    alpha: float = 0.01
    beta: float = 0.01
    t0: int = 5
    total_uploads: int = 100
    k: int = 5
    mixing: float = 0.5
    staleness_power: float = 0.5
    inner_steps: int = 1
    first_order: bool = False
    eval_every: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError("mixing must be in (0, 1]")
        if self.staleness_power < 0:
            raise ValueError("staleness_power must be non-negative")
        if min(self.t0, self.total_uploads, self.k, self.inner_steps,
               self.eval_every) < 1:
            raise ValueError(
                "t0, total_uploads, k, inner_steps and eval_every must be >= 1"
            )


@dataclass
class AsyncFedMLResult:
    params: Params
    nodes: List[EdgeNode]
    history: RunLogger
    #: simulated wall-clock seconds at which each upload was applied
    upload_times: List[float] = field(default_factory=list)
    #: staleness (global versions missed) per applied upload
    staleness: List[int] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return self.upload_times[-1] if self.upload_times else 0.0

    @property
    def global_meta_losses(self) -> List[float]:
        return self.history.series("global_meta_loss")


class AsyncFedML:
    """Event-driven asynchronous FedML runner."""

    def __init__(
        self,
        model: Model,
        config: AsyncFedMLConfig,
        loss_fn: LossFn = cross_entropy,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        self.telemetry = telemetry

    # ------------------------------------------------------------------
    def _local_contribution(self, node: EdgeNode, start: Params) -> Params:
        """Run t0 local meta-steps from ``start``; return the new params.

        The node's sets are fixed for the phase, so one one-node meta
        kernel (exact or first-order) serves all ``t0`` steps, asked for
        the gradient alone; where it declines, each step runs
        :func:`meta_gradient` (the tape).
        """
        cfg = self.config
        params = detach(start)
        built = node_meta_kernel(
            self.model, params, node.split.train, [node.split.test],
            cfg.alpha, inner_steps=cfg.inner_steps, loss_fn=self.loss_fn,
            first_order=cfg.first_order,
        )
        if built is None:
            for _ in range(cfg.t0):
                gradient, _ = meta_gradient(
                    self.model, params, node.split, cfg.alpha,
                    inner_steps=cfg.inner_steps, loss_fn=self.loss_fn,
                    first_order=cfg.first_order,
                )
                params = add_scaled(params, gradient, -cfg.beta)
                node.record_local_step()
            return params
        kernel, theta = built
        for _ in range(cfg.t0):
            grads = kernel(theta, gradient=True).gradient
            # add_scaled's arithmetic, p + (−β)·g, on the one-node stack.
            theta = {
                name: theta[name] + (-cfg.beta) * g for name, g in grads.items()
            }
            node.record_local_step()
        return {name: Tensor(theta[name][0]) for name in params}

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        total = 0.0
        weight_sum = sum(node.weight for node in nodes)
        for node in nodes:
            total += (
                node.weight
                / weight_sum
                * meta_loss(
                    self.model, params, node.split, self.config.alpha,
                    inner_steps=self.config.inner_steps, loss_fn=self.loss_fn,
                )
            )
        return total

    # ------------------------------------------------------------------
    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        fleet: Sequence[DeviceProfile],
        init_params: Optional[Params] = None,
    ) -> AsyncFedMLResult:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        datasets = [federated.nodes[i] for i in source_ids]
        nodes = build_nodes(datasets, cfg.k, node_ids=list(source_ids))
        if len(fleet) != len(nodes):
            raise ValueError(
                f"fleet has {len(fleet)} devices but there are {len(nodes)} "
                "source nodes"
            )

        global_params = (
            detach(init_params) if init_params is not None else self.model.init(rng)
        )
        upload_bytes = payload_bytes(global_params)
        global_version = 0
        tel = resolve(self.telemetry)
        history = RunLogger(
            name="async-fedml",
            registry=self.telemetry.registry if self.telemetry else None,
        )
        history.log(0, global_meta_loss=self.global_meta_loss(global_params, nodes))

        uploads_total = tel.counter("fl_uploads_total", algorithm="async-fedml")
        bytes_up = tel.counter("fl_bytes_up_total", algorithm="async-fedml")
        staleness_hist = tel.histogram(
            "fl_staleness",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64),
            algorithm="async-fedml",
        )

        # Event queue: (finish_time, node_index, version_started_from).
        events: List = []
        pending: dict = {}
        for idx, (node, device) in enumerate(zip(nodes, fleet)):
            duration = device.round_time(cfg.t0, upload_bytes)
            heapq.heappush(events, (duration, idx, global_version))
            pending[idx] = detach(global_params)

        result = AsyncFedMLResult(
            params=global_params, nodes=nodes, history=history
        )
        uploads = 0
        while uploads < cfg.total_uploads and events:
            finish_time, idx, started_version = heapq.heappop(events)
            node = nodes[idx]
            with tel.span("local_steps", node=idx):
                contribution = self._local_contribution(node, pending[idx])
            uploads_total.inc()
            bytes_up.inc(upload_bytes)

            staleness = global_version - started_version
            staleness_hist.observe(staleness)
            eta = cfg.mixing / (1.0 + staleness) ** cfg.staleness_power
            global_params = {
                name: type(global_params[name])(
                    (1.0 - eta) * global_params[name].data
                    + eta * contribution[name].data
                )
                for name in global_params
            }
            global_version += 1
            uploads += 1
            result.upload_times.append(finish_time)
            result.staleness.append(staleness)

            if uploads % cfg.eval_every == 0:
                history.log(
                    uploads,
                    global_meta_loss=self.global_meta_loss(global_params, nodes),
                    sim_time=finish_time,
                )

            # The node immediately starts its next local phase from the
            # fresh global model.
            pending[idx] = detach(global_params)
            duration = fleet[idx].round_time(cfg.t0, upload_bytes)
            heapq.heappush(events, (finish_time + duration, idx, global_version))

        tel.gauge("fl_sim_total_seconds", algorithm="async-fedml").set(
            result.total_time
        )
        result.params = detach(global_params)
        history.log(
            uploads,
            global_meta_loss=self.global_meta_loss(global_params, nodes),
            sim_time=result.total_time,
        )
        return result
