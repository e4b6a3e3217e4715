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

:class:`FederatedMetaSGD` is a facade over
:class:`repro.engine.RoundEngine` + :class:`repro.engine.MetaSgdStrategy`;
the engine drives a *merged* ``theta::``/``logalpha::`` parameter tree and
the facade splits it back for :class:`MetaSGDResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Tensor
from ..data.dataset import FederatedDataset, NodeSplit
from ..engine import (
    EngineOptions,
    MetaSgdStrategy,
    RoundEngine,
    RunnerStepAdapter,
    split_meta_sgd_trees,
)
from ..engine.executors import Executor
from ..federated.node import EdgeNode
from ..federated.platform import Platform
from ..federated.sampling import FullParticipation
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from ..obs.telemetry import Telemetry
from ..utils.logging import RunLogger
from .maml import LossFn

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
        if self.t0 < 1 or self.total_iterations < 1 or self.k < 1:
            raise ValueError("t0, total_iterations and k must be >= 1")


@dataclass
class MetaSGDResult:
    params: Params
    log_alpha: Params
    nodes: List[EdgeNode]
    platform: Platform
    history: RunLogger

    @property
    def global_meta_losses(self) -> List[float]:
        return self.history.series("global_meta_loss")

    def learned_rates(self) -> Params:
        """The per-parameter inner rates exp(log_alpha)."""
        return {
            name: Tensor(np.exp(t.data)) for name, t in self.log_alpha.items()
        }


class FederatedMetaSGD:
    """Meta-SGD under the FedML communication pattern."""

    def __init__(
        self,
        model: Model,
        config: MetaSGDConfig,
        loss_fn: LossFn = cross_entropy,
        platform: Optional[Platform] = None,
        participation=None,
        telemetry: Optional[Telemetry] = None,
        executor: Optional[Executor] = None,
        engine_options: Optional[EngineOptions] = None,
    ) -> None:
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        self.platform = platform if platform is not None else Platform()
        self.participation = (
            participation if participation is not None else FullParticipation()
        )
        self.telemetry = telemetry
        if telemetry is not None and self.platform.telemetry is None:
            self.platform.telemetry = telemetry
        self.executor = executor
        self.engine_options = engine_options
        self.strategy = MetaSgdStrategy(model, config, loss_fn)

    # ------------------------------------------------------------------
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

    def local_step(self, node: EdgeNode) -> float:
        """One joint (theta, log_alpha) meta-update on ``node``."""
        return self.strategy.local_step(node)

    def _engine_strategy(self):
        if type(self).local_step is not FederatedMetaSGD.local_step:
            return RunnerStepAdapter(self.strategy, self)
        return self.strategy

    # ------------------------------------------------------------------
    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        init_params: Optional[Params] = None,
        verbose: bool = False,
        resume: bool = False,
    ) -> MetaSGDResult:
        engine = RoundEngine(
            self._engine_strategy(),
            platform=self.platform,
            participation=self.participation,
            telemetry=self.telemetry,
            executor=self.executor,
            options=self.engine_options,
        )
        run = engine.fit(
            federated, source_ids, init_params,
            verbose=verbose, resume=resume,
        )
        final_params, final_log_alpha = split_meta_sgd_trees(run.params)
        return MetaSGDResult(
            params=final_params,
            log_alpha=final_log_alpha,
            nodes=run.nodes,
            platform=run.platform,
            history=run.history,
        )
