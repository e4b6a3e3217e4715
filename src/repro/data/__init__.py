"""Federated workload generators and dataset containers."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .corruption import (
        add_feature_noise,
        corrupt_nodes,
        flip_labels,
        poison_node_labels,
    )
    from .dataset import Dataset, FederatedDataset, NodeSplit
    from .mnist_like import (
        MnistLikeConfig,
        digit_prototypes,
        generate_mnist_like,
    )
    from .partition import power_law_sizes, shard_labels
    from .sent140_like import Sent140LikeConfig, generate_sent140_like
    from .synthetic import (
        SyntheticConfig,
        generate_interpolated_synthetic,
        generate_synthetic,
        make_target_node,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".corruption": (
                "add_feature_noise", "corrupt_nodes", "flip_labels",
                "poison_node_labels",
            ),
            ".dataset": ("Dataset", "FederatedDataset", "NodeSplit"),
            ".mnist_like": (
                "MnistLikeConfig", "digit_prototypes", "generate_mnist_like",
            ),
            ".partition": ("power_law_sizes", "shard_labels"),
            ".sent140_like": ("Sent140LikeConfig", "generate_sent140_like"),
            ".synthetic": (
                "SyntheticConfig", "generate_interpolated_synthetic",
                "generate_synthetic", "make_target_node",
            ),
        },
    )

__all__ = [
    "add_feature_noise",
    "corrupt_nodes",
    "flip_labels",
    "poison_node_labels",
    "Dataset",
    "FederatedDataset",
    "NodeSplit",
    "MnistLikeConfig",
    "digit_prototypes",
    "generate_mnist_like",
    "power_law_sizes",
    "shard_labels",
    "Sent140LikeConfig",
    "generate_sent140_like",
    "SyntheticConfig",
    "generate_interpolated_synthetic",
    "generate_synthetic",
    "make_target_node",
]
