"""Federated-learning substrate: nodes, platform, links, aggregation, sampling."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .aggregation import coordinate_median, trimmed_mean, weighted_mean
    from .hierarchy import GatewayAssignment, HierarchicalPlatform
    from .network import CommunicationLog, LinkModel, TransferRecord
    from .node import EdgeNode, build_nodes
    from .platform import Platform
    from .privacy import GaussianMechanism, SecureAggregator
    from .compression import (
        CompressedPlatform,
        TopKSparsifier,
        UniformQuantizer,
    )
    from .fleet import (
        BufferedAggregator,
        BufferEntry,
        FleetConfig,
        FleetRegistry,
        FleetResult,
        FleetSimulator,
        ShardFactory,
        SyntheticShardFactory,
    )
    from .sampling import (
        DropoutInjector,
        FullParticipation,
        IdSpaceSampler,
        SeededSampler,
        UniformSampler,
        sample_id_space,
    )
    from .simulation import (
        DeviceProfile,
        FleetTimeline,
        RoundOutcome,
        sample_fleet,
        simulate_round,
        simulate_synchronous_rounds,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".aggregation": (
                "coordinate_median", "trimmed_mean", "weighted_mean",
            ),
            ".hierarchy": ("GatewayAssignment", "HierarchicalPlatform"),
            ".network": ("CommunicationLog", "LinkModel", "TransferRecord"),
            ".node": ("EdgeNode", "build_nodes"),
            ".platform": ("Platform",),
            ".privacy": ("GaussianMechanism", "SecureAggregator"),
            ".compression": (
                "CompressedPlatform", "TopKSparsifier", "UniformQuantizer",
            ),
            ".fleet": (
                "BufferedAggregator", "BufferEntry", "FleetConfig",
                "FleetRegistry", "FleetResult", "FleetSimulator",
                "ShardFactory", "SyntheticShardFactory",
            ),
            ".sampling": (
                "DropoutInjector", "FullParticipation", "IdSpaceSampler",
                "SeededSampler", "UniformSampler", "sample_id_space",
            ),
            ".simulation": (
                "DeviceProfile", "FleetTimeline", "RoundOutcome",
                "sample_fleet", "simulate_round",
                "simulate_synchronous_rounds",
            ),
        },
    )

__all__ = [
    "coordinate_median",
    "trimmed_mean",
    "weighted_mean",
    "GatewayAssignment",
    "HierarchicalPlatform",
    "CommunicationLog",
    "LinkModel",
    "TransferRecord",
    "EdgeNode",
    "build_nodes",
    "Platform",
    "GaussianMechanism",
    "SecureAggregator",
    "BufferedAggregator",
    "BufferEntry",
    "FleetConfig",
    "FleetRegistry",
    "FleetResult",
    "FleetSimulator",
    "ShardFactory",
    "SyntheticShardFactory",
    "DropoutInjector",
    "FullParticipation",
    "IdSpaceSampler",
    "SeededSampler",
    "UniformSampler",
    "sample_id_space",
    "CompressedPlatform",
    "TopKSparsifier",
    "UniformQuantizer",
    "DeviceProfile",
    "FleetTimeline",
    "RoundOutcome",
    "sample_fleet",
    "simulate_round",
    "simulate_synchronous_rounds",
]
