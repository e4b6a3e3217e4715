"""Functional neural-network library on top of :mod:`repro.autodiff`."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from . import init, parameters
    from .fused import fused_model_loss
    from .losses import accuracy, cross_entropy, mse, one_hot
    from .modules import MLP, EmbeddingClassifier, LogisticRegression, Model
    from .optim import SGD, Adam, Optimizer
    from .schedules import ConstantSchedule, CosineSchedule, StepDecaySchedule
    from .parameters import (
        Params,
        add_scaled,
        clone,
        detach,
        from_vector,
        l2_distance,
        l2_norm,
        num_bytes,
        num_parameters,
        require_grad,
        to_vector,
        tree_binary_map,
        tree_map,
        zeros_like_params,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".": ("init", "parameters"),
            ".fused": ("fused_model_loss",),
            ".losses": ("accuracy", "cross_entropy", "mse", "one_hot"),
            ".modules": (
                "MLP", "EmbeddingClassifier", "LogisticRegression", "Model",
            ),
            ".optim": ("SGD", "Adam", "Optimizer"),
            ".schedules": (
                "ConstantSchedule", "CosineSchedule", "StepDecaySchedule",
            ),
            ".parameters": (
                "Params", "add_scaled", "clone", "detach", "from_vector",
                "l2_distance", "l2_norm", "num_bytes", "num_parameters",
                "require_grad", "to_vector", "tree_binary_map", "tree_map",
                "zeros_like_params",
            ),
        },
    )

__all__ = [
    "init",
    "parameters",
    "accuracy",
    "cross_entropy",
    "fused_model_loss",
    "mse",
    "one_hot",
    "Model",
    "LogisticRegression",
    "MLP",
    "EmbeddingClassifier",
    "Optimizer",
    "SGD",
    "Adam",
    "ConstantSchedule",
    "CosineSchedule",
    "StepDecaySchedule",
    "Params",
    "add_scaled",
    "clone",
    "detach",
    "from_vector",
    "l2_distance",
    "l2_norm",
    "num_bytes",
    "num_parameters",
    "require_grad",
    "to_vector",
    "tree_binary_map",
    "tree_map",
    "zeros_like_params",
]
