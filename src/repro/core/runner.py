"""One runner for the synchronous algorithms of :mod:`repro.core`.

Algorithm 1 is one communication pattern — ``T0`` local steps, the
weighted aggregate (eq. 5), a broadcast — shared by every synchronous
algorithm, and :class:`~repro.engine.RoundEngine` implements it once.
:class:`FederatedRunner` is the public face over it: it owns the
constructor, ``local_step`` and ``fit``, and each algorithm class names
its :class:`~repro.engine.LocalStrategy` as ``strategy_type`` and adds
only what is its own.

``self.strategy`` is the instance the engine runs, so changing what one
local iteration does means subclassing the strategy: override its
``local_step``, set ``supports_vectorized = False`` unless
``local_block_vectorized`` applies the change too (both executors run the
stacked block for every node it serves, so the override would otherwise
never run), and name the subclass as the ``strategy_type`` of a runner
subclass.  ``fit`` never calls the runner's own ``local_step``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Type

from ..data.dataset import FederatedDataset
from ..engine import EngineOptions, EngineResult, LocalStrategy, RoundEngine
from ..engine.executors import Executor
from ..federated.node import EdgeNode
from ..federated.platform import Platform
from ..federated.sampling import FullParticipation
from ..nn.losses import cross_entropy
from ..nn.modules import Model
from ..nn.parameters import Params
from ..obs.telemetry import Telemetry
from .maml import LossFn

__all__ = ["FederatedResult", "FederatedRunner"]


class FederatedResult(EngineResult):
    """Everything a run produces: final model, nodes, platform, history."""

    @property
    def global_meta_losses(self) -> List[float]:
        return self.history.series("global_meta_loss")

    @property
    def global_losses(self) -> List[float]:
        return self.history.series("global_loss")

    @property
    def uplink_bytes(self) -> int:
        return self.platform.comm_log.uplink_bytes


class FederatedRunner:
    """Runs ``strategy_type`` over a :class:`FederatedDataset`."""

    #: the algorithm's local behaviour, built once per runner as
    #: ``self.strategy`` from ``(model, config, loss_fn)``
    strategy_type: Type[LocalStrategy]

    def __init__(
        self,
        model: Model,
        config: Any,
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
        # Any, as RoundEngine holds it: each runner calls its own
        # strategy's accessors (global_meta_loss, global_loss, adapt, ...).
        self.strategy: Any = self.strategy_type(model, config, loss_fn)

    def local_step(self, node: EdgeNode) -> float:
        """One local iteration of the strategy on ``node``; returns its loss."""
        return self.strategy.local_step(node)

    def fit(
        self,
        federated: FederatedDataset,
        source_ids: Sequence[int],
        init_params: Optional[Params] = None,
        verbose: bool = False,
        resume: bool = False,
    ) -> FederatedResult:
        """Run the algorithm and return the learned model."""
        engine = RoundEngine(
            self.strategy,
            platform=self.platform,
            participation=self.participation,
            telemetry=self.telemetry,
            executor=self.executor,
            options=self.engine_options,
        )
        return self._result(
            engine.fit(
                federated, source_ids, init_params,
                verbose=verbose, resume=resume,
            )
        )

    def _result(self, run: EngineResult) -> FederatedResult:
        """The public result of one engine run."""
        return FederatedResult(run.params, run.nodes, run.platform, run.history)
