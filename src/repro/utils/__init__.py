"""Shared utilities: deterministic RNG streams, serialization, logging."""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
    from .logging import RunLogger
    from .rng import RngFactory, spawn
    from .serialization import (
        deserialize_params,
        payload_bytes,
        serialize_params,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".checkpoint": (
                "Checkpoint", "load_checkpoint", "save_checkpoint",
            ),
            ".logging": ("RunLogger",),
            ".rng": ("RngFactory", "spawn"),
            ".serialization": (
                "deserialize_params", "payload_bytes", "serialize_params",
            ),
        },
    )

__all__ = [
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "RunLogger",
    "RngFactory",
    "spawn",
    "deserialize_params",
    "payload_bytes",
    "serialize_params",
]
