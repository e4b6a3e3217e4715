"""Federated meta-learning — Algorithm 1 of the paper.

Every iteration ``t`` each source node takes one local meta-step

    phi_i^t      = theta_i^t − α ∇L(theta_i^t, D_i^train)        (eq. 3)
    theta_i^{t+1} = theta_i^t − β ∇_theta L(phi_i^t, D_i^test)    (eq. 4)

and every ``T0`` iterations the platform aggregates

    theta^{t+1} = Σ_i ω_i theta_i^{t+1}                           (eq. 5)

and broadcasts it back.  ``T0`` is the paper's knob trading communication
cost against local computation (Theorem 2 characterizes the error it
introduces).

:class:`FedML` is a :class:`~repro.core.runner.FederatedRunner` whose
``strategy_type`` is :class:`repro.engine.MetaStrategy`: the round loop
lives in :class:`repro.engine.RoundEngine` and the local update in the
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..data.dataset import FederatedDataset
from ..engine import MetaStrategy
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedRunner

__all__ = ["FedMLConfig", "FedML"]


@dataclass(frozen=True)
class FedMLConfig:
    """Hyper-parameters of Algorithm 1.

    Attributes
    ----------
    alpha:
        Inner learning rate of the one-step update (eq. 3).
    beta:
        Meta learning rate of the local update (eq. 4).
    t0:
        Local iterations between global aggregations.
    total_iterations:
        Total local-iteration budget ``T`` (the paper assumes ``T = N·T0``).
    k:
        Size of each node's inner training split ``|D_i^train|``.
    inner_steps:
        Gradient steps of the inner update (paper: 1).
    first_order:
        Drop second-order terms (FOMAML) — an ablation, not the paper default.
    eval_every:
        Record the global meta-loss every this many aggregations (1 = every
        aggregation; evaluation is pure bookkeeping, not part of training).
    """

    alpha: float = 0.01
    beta: float = 0.01
    t0: int = 5
    total_iterations: int = 100
    k: int = 5
    inner_steps: int = 1
    first_order: bool = False
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")
        if self.t0 < 1:
            raise ValueError("t0 must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.total_iterations < 1:
            raise ValueError("total_iterations must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")


class FedML(FederatedRunner):
    """Runner for Algorithm 1 over a :class:`FederatedDataset`."""

    strategy_type = MetaStrategy

    def build_source_nodes(
        self, federated: FederatedDataset, source_ids: Sequence[int]
    ) -> List[EdgeNode]:
        return self.strategy.build_nodes(federated, source_ids)

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        """``G(theta) = Σ ω_i G_i(theta)`` over the source nodes."""
        return self.strategy.global_meta_loss(params, nodes)
