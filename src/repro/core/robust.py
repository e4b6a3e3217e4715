"""Robust federated meta-learning — Algorithm 2 of the paper.

Robust FedML augments the FedML local update with a distributionally robust
outer loss (eq. 14):

    theta_i^{t+1} = theta_i^t − β ∇ { L(phi_i^t, D_i^test) + L(phi_i^t, D_i^adv) }

where ``D_i^adv`` is grown periodically (every ``N0·T0`` iterations, at most
``R`` times) by solving the Wasserstein-DRO inner supremum with ``Ta`` steps
of gradient ascent at rate ν (Algorithm 2, lines 15–21).  The Lagrangian
penalty λ controls the robustness/accuracy trade-off: small λ ⇒ larger
uncertainty set ⇒ more robustness (Figure 4).

:class:`RobustFedML` is a facade over :class:`repro.engine.RoundEngine` +
:class:`repro.engine.AdversarialStrategy` (which owns the DRO local update
and the generation schedule via the engine's block hook).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..data.dataset import FederatedDataset
from ..engine import AdversarialStrategy, EngineOptions, RoundEngine, RunnerStepAdapter
from ..engine.executors import Executor
from ..federated.node import EdgeNode
from ..federated.platform import Platform
from ..federated.sampling import FullParticipation
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from ..obs.telemetry import Telemetry
from ..utils.logging import RunLogger
from .fedml import FedMLConfig
from .maml import LossFn

__all__ = ["RobustFedMLConfig", "RobustFedMLResult", "RobustFedML"]


@dataclass(frozen=True)
class RobustFedMLConfig:
    """Hyper-parameters of Algorithm 2.

    Inherits the FedML knobs and adds the DRO schedule.  Paper settings for
    the MNIST experiment: ν=1, R=2, N0=7, Ta=10, λ ∈ {0.1, 1, 10}.
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
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.nu <= 0 or self.ta < 1:
            raise ValueError("nu must be positive and ta >= 1")
        if self.n0 < 1 or self.r_max < 0:
            raise ValueError("n0 must be >= 1 and r_max >= 0")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("learning rates must be positive")

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


@dataclass
class RobustFedMLResult:
    params: Params
    nodes: List[EdgeNode]
    platform: Platform
    history: RunLogger

    @property
    def global_meta_losses(self) -> List[float]:
        return self.history.series("global_meta_loss")

    def adversarial_counts(self) -> List[int]:
        return [
            0 if n.adversarial is None else len(n.adversarial) for n in self.nodes
        ]


class RobustFedML:
    """Runner for Algorithm 2 over a :class:`FederatedDataset`."""

    def __init__(
        self,
        model: Model,
        config: RobustFedMLConfig,
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
        self.strategy = AdversarialStrategy(model, config, loss_fn)

    # ------------------------------------------------------------------
    def local_step(self, node: EdgeNode) -> float:
        """Local robust meta-update (eq. 13 + eq. 14)."""
        return self.strategy.local_step(node)

    def global_meta_loss(self, params: Params, nodes: Sequence[EdgeNode]) -> float:
        return self.strategy.global_meta_loss(params, nodes)

    def _engine_strategy(self):
        if type(self).local_step is not RobustFedML.local_step:
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
    ) -> RobustFedMLResult:
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
        return RobustFedMLResult(
            params=run.params,
            nodes=run.nodes,
            platform=run.platform,
            history=run.history,
        )
