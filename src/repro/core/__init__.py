"""The paper's algorithms: FedML, Robust FedML, FedAvg, MAML, Reptile."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .adaptation import AdaptationCurve, adapt, evaluate_adaptation
    from .adml import ADMLConfig, FederatedADML
    from .async_fedml import AsyncFedML, AsyncFedMLConfig, AsyncFedMLResult
    from .fedavg import FedAvg, FedAvgConfig
    from .fedprox import FedProx, FedProxConfig
    from .fedml import FedML, FedMLConfig
    from .maml import MAML, inner_adapt, meta_gradient, meta_loss
    from .meta_sgd import FederatedMetaSGD, MetaSGDConfig, MetaSGDResult
    from .reptile import FederatedReptile, ReptileConfig
    from .robust import RobustFedML, RobustFedMLConfig, RobustFedMLResult
    from .runner import FederatedResult, FederatedRunner
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".adaptation": ("AdaptationCurve", "adapt", "evaluate_adaptation"),
            ".adml": ("ADMLConfig", "FederatedADML"),
            ".async_fedml": (
                "AsyncFedML", "AsyncFedMLConfig", "AsyncFedMLResult",
            ),
            ".fedavg": ("FedAvg", "FedAvgConfig"),
            ".fedprox": ("FedProx", "FedProxConfig"),
            ".fedml": ("FedML", "FedMLConfig"),
            ".maml": ("MAML", "inner_adapt", "meta_gradient", "meta_loss"),
            ".meta_sgd": (
                "FederatedMetaSGD", "MetaSGDConfig", "MetaSGDResult",
            ),
            ".reptile": ("FederatedReptile", "ReptileConfig"),
            ".robust": (
                "RobustFedML", "RobustFedMLConfig", "RobustFedMLResult",
            ),
            ".runner": ("FederatedResult", "FederatedRunner"),
        },
    )

__all__ = [
    "ADMLConfig",
    "AsyncFedML",
    "AsyncFedMLConfig",
    "AsyncFedMLResult",
    "FederatedADML",
    "FedProx",
    "FedProxConfig",
    "AdaptationCurve",
    "adapt",
    "evaluate_adaptation",
    "FedAvg",
    "FedAvgConfig",
    "FederatedResult",
    "FederatedRunner",
    "FedML",
    "FedMLConfig",
    "MAML",
    "FederatedMetaSGD",
    "MetaSGDConfig",
    "MetaSGDResult",
    "inner_adapt",
    "meta_gradient",
    "meta_loss",
    "FederatedReptile",
    "ReptileConfig",
    "RobustFedML",
    "RobustFedMLConfig",
    "RobustFedMLResult",
]
