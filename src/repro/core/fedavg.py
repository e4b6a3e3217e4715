"""Federated averaging (McMahan et al., 2016) — the paper's baseline.

FedAvg trains a single global model to fit all nodes' data: each node runs
``T0`` plain SGD steps on its *entire* local dataset (the paper: "the entire
dataset is used for training in Fedavg"), then the platform averages.  The
result is a good consensus model but — as Figures 3(c)–(e) show — a poor
*initialization* for few-shot adaptation, which is the phenomenon FedML
exists to fix.

:class:`FedAvg` is a :class:`~repro.core.runner.FederatedRunner` over
:class:`repro.engine.SgdStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine import SgdStrategy
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedRunner

__all__ = ["FedAvgConfig", "FedAvg"]


@dataclass(frozen=True)
class FedAvgConfig:
    """Hyper-parameters: learning rate matches the paper's β for fairness."""

    learning_rate: float = 0.01
    t0: int = 5
    total_iterations: int = 100
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.t0 < 1 or self.total_iterations < 1 or self.eval_every < 1:
            raise ValueError("t0, total_iterations and eval_every must be >= 1")


class FedAvg(FederatedRunner):
    """Runner for federated averaging over a :class:`FederatedDataset`."""

    strategy_type = SgdStrategy

    def global_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        """Weighted empirical loss ``L_w(theta)`` (eq. 2)."""
        return self.strategy.global_loss(params, nodes)
