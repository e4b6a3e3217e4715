"""Convergence theory toolkit: constant estimation and the paper's bounds."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .adaptation_bound import (
        AdaptationGapEstimate,
        estimate_gradient_sample_error,
        surrogate_difference,
        theorem3_bound,
    )
    from .bounds import (
        MetaObjectiveConstants,
        contraction_factor,
        h_error_term,
        lemma1_constants,
        max_inner_learning_rate,
        max_meta_learning_rate,
        theorem1_dissimilarity_bound,
        theorem2_bound,
        theorem4_lambda_threshold,
    )
    from .estimation import (
        NodeSimilarity,
        SmoothnessEstimate,
        estimate_similarity,
        estimate_smoothness,
        hessian_vector_product,
        loss_gradient_vector,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".adaptation_bound": (
                "AdaptationGapEstimate", "estimate_gradient_sample_error",
                "surrogate_difference", "theorem3_bound",
            ),
            ".bounds": (
                "MetaObjectiveConstants", "contraction_factor", "h_error_term",
                "lemma1_constants", "max_inner_learning_rate",
                "max_meta_learning_rate", "theorem1_dissimilarity_bound",
                "theorem2_bound", "theorem4_lambda_threshold",
            ),
            ".estimation": (
                "NodeSimilarity", "SmoothnessEstimate", "estimate_similarity",
                "estimate_smoothness", "hessian_vector_product",
                "loss_gradient_vector",
            ),
        },
    )

__all__ = [
    "AdaptationGapEstimate",
    "estimate_gradient_sample_error",
    "surrogate_difference",
    "theorem3_bound",
    "MetaObjectiveConstants",
    "contraction_factor",
    "h_error_term",
    "lemma1_constants",
    "max_inner_learning_rate",
    "max_meta_learning_rate",
    "theorem1_dissimilarity_bound",
    "theorem2_bound",
    "theorem4_lambda_threshold",
    "NodeSimilarity",
    "SmoothnessEstimate",
    "estimate_similarity",
    "estimate_smoothness",
    "hessian_vector_product",
    "loss_gradient_vector",
]
