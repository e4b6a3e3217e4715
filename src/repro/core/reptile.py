"""Federated Reptile (Nichol et al., 2018) — a first-order alternative.

Reptile replaces the MAML meta-gradient with the simple parameter difference
``theta - phi`` after a few inner SGD steps.  The paper discusses it as the
main Hessian-free alternative to MAML; we provide a federated variant as an
ablation baseline: each node runs ``inner_steps`` SGD steps on its full
local data and moves its meta-parameters toward the result; the platform
aggregates every ``t0`` local meta-steps.

:class:`FederatedReptile` is a :class:`~repro.core.runner.FederatedRunner`
over :class:`repro.engine.ReptileStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine import ReptileStrategy
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedRunner

__all__ = ["ReptileConfig", "FederatedReptile"]


@dataclass(frozen=True)
class ReptileConfig:
    inner_lr: float = 0.01
    outer_lr: float = 0.5
    inner_steps: int = 3
    t0: int = 5
    total_iterations: int = 100
    k: int = 5
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inner_lr <= 0 or self.outer_lr <= 0:
            raise ValueError("learning rates must be positive")
        if min(self.inner_steps, self.t0, self.total_iterations,
               self.eval_every) < 1:
            raise ValueError(
                "inner_steps, t0, total_iterations and eval_every must be >= 1"
            )


class FederatedReptile(FederatedRunner):
    """Reptile under the FedML communication pattern."""

    strategy_type = ReptileStrategy

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_meta_loss(params, nodes)
