"""Federated Meta-SGD — learnable per-parameter inner learning rates.

Meta-SGD (Li et al., 2017) generalizes MAML: instead of a scalar inner rate
α, every parameter gets its own learnable rate, and the meta-update trains
initialization *and* rates jointly:

    phi   = theta − exp(log_alpha) ⊙ ∇L(theta, D_train)
    outer = L(phi, D_test),  meta-gradient w.r.t. (theta, log_alpha).

Rates are parameterized in log space so they stay positive.  We train it
under the same FedML communication pattern (T0 local steps, weighted
aggregation of both trees), making it a natural "learned-α" extension of
Algorithm 1 — the paper's future-work direction of tuning the adaptation
step automatically.

:class:`FederatedMetaSGD` is a :class:`~repro.core.runner.FederatedRunner`
over :class:`repro.engine.MetaSgdStrategy`; the engine drives a *merged*
``theta::``/``logalpha::`` parameter tree and the runner splits it back
for :class:`MetaSGDResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..autodiff import Tensor
from ..data.dataset import NodeSplit
from ..engine import EngineResult, MetaSgdStrategy, split_meta_sgd_trees
from ..federated.node import EdgeNode
from ..nn.parameters import Params
from .runner import FederatedResult, FederatedRunner

__all__ = ["MetaSGDConfig", "MetaSGDResult", "FederatedMetaSGD"]


@dataclass(frozen=True)
class MetaSGDConfig:
    """Hyper-parameters; ``alpha_init`` seeds the learnable rates."""

    alpha_init: float = 0.01
    beta: float = 0.01
    t0: int = 5
    total_iterations: int = 100
    k: int = 5
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha_init <= 0 or self.beta <= 0:
            raise ValueError("alpha_init and beta must be positive")
        if min(self.t0, self.total_iterations, self.k, self.eval_every) < 1:
            raise ValueError(
                "t0, total_iterations, k and eval_every must be >= 1"
            )


@dataclass
class MetaSGDResult(FederatedResult):
    """A run's result with θ and the learned log-rates split apart."""

    log_alpha: Params

    def learned_rates(self) -> Params:
        """The per-parameter inner rates exp(log_alpha)."""
        return {
            name: Tensor(np.exp(t.data)) for name, t in self.log_alpha.items()
        }


class FederatedMetaSGD(FederatedRunner):
    """Meta-SGD under the FedML communication pattern."""

    strategy_type = MetaSgdStrategy

    def adapt(
        self, params: Params, log_alpha: Params, split: NodeSplit
    ) -> Params:
        """One learned-rate inner step (detached, for evaluation)."""
        return self.strategy.adapt(params, log_alpha, split)

    def meta_loss(
        self, params: Params, log_alpha: Params, split: NodeSplit
    ) -> float:
        return self.strategy.meta_loss(params, log_alpha, split)

    def global_meta_loss(self, merged: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_meta_loss(merged, nodes)

    def _result(self, run: EngineResult) -> MetaSGDResult:
        params, log_alpha = split_meta_sgd_trees(run.params)
        return MetaSGDResult(
            params, run.nodes, run.platform, run.history, log_alpha=log_alpha
        )
