"""FedProx (Sahu et al., 2018) — proximal federated optimization baseline.

The paper cites FedProx as the principled way to tame statistical
heterogeneity in plain federated learning: each node minimizes its local
loss plus a proximal term anchoring it to the last global model,

    min_θ  L_i(θ) + (μ_prox / 2) ‖θ − θ_global‖².

Like FedAvg it learns a consensus model (not an initialization), so it
shares FedAvg's weakness at few-shot adaptation — but it converges more
stably when nodes drift (large T0 or very dissimilar nodes), which the
ablation benches exercise.

:class:`FedProx` is a :class:`~repro.core.runner.FederatedRunner` over
:class:`repro.engine.ProxStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine import ProxStrategy
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedRunner

__all__ = ["FedProxConfig", "FedProx"]


@dataclass(frozen=True)
class FedProxConfig:
    """Hyper-parameters; ``mu_prox`` is the proximal coefficient μ."""

    learning_rate: float = 0.01
    mu_prox: float = 0.1
    t0: int = 5
    total_iterations: int = 100
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.mu_prox < 0:
            raise ValueError("mu_prox must be non-negative")
        if self.t0 < 1 or self.total_iterations < 1 or self.eval_every < 1:
            raise ValueError("t0, total_iterations and eval_every must be >= 1")


class FedProx(FederatedRunner):
    """Runner for FedProx over a :class:`FederatedDataset`."""

    strategy_type = ProxStrategy

    def global_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_loss(params, nodes)
