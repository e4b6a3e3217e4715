"""Unified federated round engine.

One driver (:class:`RoundEngine`), pluggable per-algorithm local behaviour
(:class:`LocalStrategy` and friends), and swappable block schedulers
(:class:`SerialExecutor` / :class:`VectorizedExecutor`).  The algorithm
classes in :mod:`repro.core` run on it through one
:class:`~repro.core.runner.FederatedRunner`; see
``docs/ENGINE.md`` for the layer diagram and extension guide.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .evaluation import (
        loss_gradient,
        node_training_data,
        weighted_node_average,
    )
    from .executors import (
        Executor,
        ExecutorError,
        SerialExecutor,
        VectorizedExecutor,
    )
    from .round_engine import EngineOptions, EngineResult, RoundEngine
    from .strategies import (
        AdmlStrategy,
        AdversarialStrategy,
        LocalStrategy,
        MetaSgdStrategy,
        MetaStrategy,
        ProxStrategy,
        ReptileStrategy,
        SgdStrategy,
        merge_meta_sgd_trees,
        split_meta_sgd_trees,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".evaluation": (
                "loss_gradient", "node_training_data", "weighted_node_average",
            ),
            ".executors": (
                "Executor", "ExecutorError", "SerialExecutor",
                "VectorizedExecutor",
            ),
            ".round_engine": ("EngineOptions", "EngineResult", "RoundEngine"),
            ".strategies": (
                "AdmlStrategy", "AdversarialStrategy", "LocalStrategy",
                "MetaSgdStrategy", "MetaStrategy", "ProxStrategy",
                "ReptileStrategy", "SgdStrategy", "merge_meta_sgd_trees",
                "split_meta_sgd_trees",
            ),
        },
    )

__all__ = [
    "RoundEngine",
    "EngineResult",
    "EngineOptions",
    "Executor",
    "ExecutorError",
    "SerialExecutor",
    "VectorizedExecutor",
    "LocalStrategy",
    "SgdStrategy",
    "ProxStrategy",
    "MetaStrategy",
    "MetaSgdStrategy",
    "ReptileStrategy",
    "AdmlStrategy",
    "AdversarialStrategy",
    "merge_meta_sgd_trees",
    "split_meta_sgd_trees",
    "weighted_node_average",
    "loss_gradient",
    "node_training_data",
]
