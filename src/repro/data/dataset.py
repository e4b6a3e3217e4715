"""Dataset containers for federated workloads.

``Dataset`` is a thin immutable wrapper over ``(x, y)`` arrays.  A
``FederatedDataset`` is an ordered collection of per-node datasets plus the
metadata the paper's Table I reports (number of nodes, mean/std samples per
node), with helpers to carve out source vs. target nodes and to apply the
paper's train/test protocol (|D_train| = K per node, remainder is the local
test set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Dataset", "NodeSplit", "FederatedDataset"]


@dataclass(frozen=True)
class Dataset:
    """An in-memory supervised dataset."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"x has {len(self.x)} rows but y has {len(self.y)} labels"
            )

    def __len__(self) -> int:
        return len(self.y)

    @property
    def num_features(self) -> int:
        return int(np.prod(self.x.shape[1:]))

    def subset(self, indices: Sequence[int]) -> "Dataset":
        indices = np.asarray(indices)
        return Dataset(self.x[indices], self.y[indices])

    def shuffled(self, rng: np.random.Generator) -> "Dataset":
        order = rng.permutation(len(self))
        return self.subset(order)

    def split(self, k: int) -> Tuple["Dataset", "Dataset"]:
        """Split into the first ``k`` samples and the remainder.

        Mirrors the paper's protocol: ``D_i^train`` holds ``K`` samples for
        the inner one-step update, ``D_i^test`` the rest for the meta loss.
        """
        if not 0 < k < len(self):
            raise ValueError(
                f"k must be in (0, {len(self)}) to leave a non-empty test "
                f"set, got {k}"
            )
        return (
            Dataset(self.x[:k].copy(), self.y[:k].copy()),
            Dataset(self.x[k:].copy(), self.y[k:].copy()),
        )

    def batches(
        self, batch_size: int, rng: Optional[np.random.Generator] = None
    ):
        """Yield mini-batches, optionally shuffled."""
        order = np.arange(len(self))
        if rng is not None:
            order = rng.permutation(len(self))
        for start in range(0, len(self), batch_size):
            yield self.subset(order[start : start + batch_size])

    def concat(self, other: "Dataset") -> "Dataset":
        return Dataset(
            np.concatenate([self.x, other.x], axis=0),
            np.concatenate([self.y, other.y], axis=0),
        )


@dataclass(frozen=True)
class NodeSplit:
    """A node's data under the paper's K-shot protocol."""

    train: Dataset  # |train| == K, used for the inner / adaptation step
    test: Dataset  # used for the meta loss / final evaluation


@dataclass
class FederatedDataset:
    """Per-node datasets plus workload metadata."""

    name: str
    nodes: List[Dataset]
    num_classes: int
    metadata: Dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.nodes)

    def sizes(self) -> np.ndarray:
        return np.array([len(node) for node in self.nodes])

    def statistics(self) -> Dict[str, float]:
        """The columns of the paper's Table I."""
        sizes = self.sizes()
        return {
            "nodes": float(len(self.nodes)),
            "samples_mean": float(np.mean(sizes)),
            "samples_std": float(np.std(sizes)),
            "samples_total": float(np.sum(sizes)),
        }

    def split_sources_targets(
        self, source_fraction: float, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        """Randomly designate source vs. target node indices.

        The paper selects 80% of nodes as sources for federated
        meta-training and evaluates fast adaptation on the remaining 20%.
        """
        if not 0.0 < source_fraction < 1.0:
            raise ValueError("source_fraction must be in (0, 1)")
        order = rng.permutation(len(self.nodes))
        cut = max(1, int(round(source_fraction * len(self.nodes))))
        cut = min(cut, len(self.nodes) - 1)
        return sorted(order[:cut].tolist()), sorted(order[cut:].tolist())

    def node_split(self, index: int, k: int) -> NodeSplit:
        """Apply the K-shot train/test protocol to one node."""
        train, test = self.nodes[index].split(k)
        return NodeSplit(train=train, test=test)
