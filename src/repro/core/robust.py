"""Robust federated meta-learning — Algorithm 2 of the paper.

Robust FedML augments the FedML local update with a distributionally robust
outer loss (eq. 14):

    theta_i^{t+1} = theta_i^t − β ∇ { L(phi_i^t, D_i^test) + L(phi_i^t, D_i^adv) }

where ``D_i^adv`` is grown periodically (every ``N0·T0`` iterations, at most
``R`` times) by solving the Wasserstein-DRO inner supremum with ``Ta`` steps
of gradient ascent at rate ν (Algorithm 2, lines 15–21).  The Lagrangian
penalty λ controls the robustness/accuracy trade-off: small λ ⇒ larger
uncertainty set ⇒ more robustness (Figure 4).

:class:`RobustFedML` is a :class:`~repro.core.runner.FederatedRunner` over
:class:`repro.engine.AdversarialStrategy` (which owns the DRO local update
and the generation schedule via the engine's block hook).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..engine import AdversarialStrategy, EngineResult
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .fedml import FedMLConfig
from .runner import FederatedResult, FederatedRunner

__all__ = ["RobustFedMLConfig", "RobustFedMLResult", "RobustFedML"]


@dataclass(frozen=True)
class RobustFedMLConfig(FedMLConfig):
    """Hyper-parameters of Algorithm 2.

    Inherits the FedML knobs (and their checks) and adds the DRO schedule.
    Paper settings for the MNIST experiment: ν=1, R=2, N0=7, Ta=10,
    λ ∈ {0.1, 1, 10}.
    """

    #: Lagrangian penalty λ (inverse of the uncertainty-set radius π)
    lam: float = 1.0
    #: ascent step size ν
    nu: float = 1.0
    #: ascent steps Ta
    ta: int = 10
    #: adversarial generation every N0·T0 iterations
    n0: int = 7
    #: at most R generation rounds
    r_max: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.nu <= 0 or self.ta < 1:
            raise ValueError("nu must be positive and ta >= 1")
        if self.n0 < 1 or self.r_max < 0:
            raise ValueError("n0 must be >= 1 and r_max >= 0")

    def as_fedml(self) -> FedMLConfig:
        return FedMLConfig(
            alpha=self.alpha,
            beta=self.beta,
            t0=self.t0,
            total_iterations=self.total_iterations,
            k=self.k,
            inner_steps=self.inner_steps,
            first_order=self.first_order,
            eval_every=self.eval_every,
            seed=self.seed,
        )


class RobustFedMLResult(FederatedResult):
    def adversarial_counts(self) -> List[int]:
        return [
            0 if n.adversarial is None else len(n.adversarial) for n in self.nodes
        ]


class RobustFedML(FederatedRunner):
    """Runner for Algorithm 2 over a :class:`FederatedDataset`."""

    strategy_type = AdversarialStrategy

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_meta_loss(params, nodes)

    def _result(self, run: EngineResult) -> RobustFedMLResult:
        return RobustFedMLResult(
            run.params, run.nodes, run.platform, run.history
        )
