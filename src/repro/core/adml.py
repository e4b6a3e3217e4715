"""ADML-style adversarial meta-learning baseline (Yin et al., 2018).

The paper's Related Work contrasts its DRO approach with ADML, which
"exploits both clean and adversarial samples to push the inner gradient
update to arm-wrestle with the meta-update".  We provide a federated
ADML-style variant as a comparison baseline:

* the inner (adaptation) update is computed on **adversarially perturbed**
  training samples (FGSM at strength ε), so the initialization learns to
  adapt from corrupted support data;
* the outer meta-update is evaluated on both the clean and the perturbed
  test samples.

Contrast with Robust FedML (Algorithm 2): ADML regenerates perturbations
*every* iteration via FGSM against the current model (expensive, and tied
to one attack form), whereas the DRO scheme amortizes perturbation
construction over an adversarial dataset grown on a fixed schedule and is
derived from a distributional robustness objective.

:class:`FederatedADML` is a :class:`~repro.core.runner.FederatedRunner`
over :class:`repro.engine.AdmlStrategy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine import AdmlStrategy
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedRunner

__all__ = ["ADMLConfig", "FederatedADML"]


@dataclass(frozen=True)
class ADMLConfig:
    """FedML knobs plus the FGSM strength ε used during training."""

    alpha: float = 0.01
    beta: float = 0.01
    t0: int = 5
    total_iterations: int = 100
    k: int = 5
    epsilon: float = 0.1
    first_order: bool = False
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if min(self.t0, self.total_iterations, self.k, self.eval_every) < 1:
            raise ValueError(
                "t0, total_iterations, k and eval_every must be >= 1"
            )


class FederatedADML(FederatedRunner):
    """ADML-style adversarial meta-training under FedML's communication."""

    strategy_type = AdmlStrategy

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_meta_loss(params, nodes)
