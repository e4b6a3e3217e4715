"""The paper's algorithms: FedML, Robust FedML, FedAvg, MAML, Reptile."""

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
