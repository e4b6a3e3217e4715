"""Unified federated round engine.

One driver (:class:`RoundEngine`), pluggable per-algorithm local behaviour
(:class:`LocalStrategy` and friends), and swappable block schedulers
(:class:`SerialExecutor` / :class:`VectorizedExecutor`).  The algorithm
classes in :mod:`repro.core` are thin facades over this package; see
``docs/ENGINE.md`` for the layer diagram and extension guide.
"""

from .evaluation import loss_gradient, node_training_data, weighted_node_average
from .executors import Executor, ExecutorError, SerialExecutor
from .round_engine import EngineOptions, EngineResult, RoundEngine
from .vectorized import VectorizedExecutor
from .strategies import (
    AdmlStrategy,
    AdversarialStrategy,
    LocalStrategy,
    MetaSgdStrategy,
    MetaStrategy,
    ProxStrategy,
    ReptileStrategy,
    RunnerStepAdapter,
    SgdStrategy,
    merge_meta_sgd_trees,
    split_meta_sgd_trees,
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
    "RunnerStepAdapter",
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
