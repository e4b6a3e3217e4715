"""repro — reproduction of "Real-Time Edge Intelligence in the Making:
A Collaborative Learning Framework via Federated Meta-Learning" (ICDCS 2020).

Subpackages
-----------
``repro.autodiff``
    NumPy reverse-mode autodiff with double-backward support.
``repro.nn``
    Functional neural-network models, losses and optimizers.
``repro.data``
    Federated workload generators (Synthetic(alpha, beta), MNIST-like,
    Sent140-like) and dataset containers.
``repro.federated``
    The platform-aided substrate: edge nodes, aggregation, link cost model.
``repro.core``
    The paper's algorithms: FedML (Algorithm 1), Robust FedML (Algorithm 2),
    FedAvg, centralized MAML, federated Reptile, target adaptation.
``repro.attacks``
    FGSM / PGD / Wasserstein-DRO perturbations.
``repro.theory``
    Assumption-constant estimation and Theorems 1-4 as callable bounds.
``repro.metrics``
    Few-shot and robustness evaluation protocols, table formatting.
``repro.faults``
    Deterministic fault injection (crash/drop/corrupt/delay/flaky/kill
    plans) and the resilience policy the round engine degrades with.
``repro.engine``
    The round engine every algorithm runs on, its strategies and executors.
``repro.obs``
    Telemetry: spans, metrics, the JSONL event stream and run reports.

Subpackages, and the names each exports, are imported on first use
(:mod:`repro._lazy`), so ``import repro`` loads none of them.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from . import (
        attacks,
        autodiff,
        core,
        data,
        engine,
        faults,
        federated,
        metrics,
        nn,
        obs,
        theory,
        utils,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".": (
                "attacks",
                "autodiff",
                "core",
                "data",
                "engine",
                "faults",
                "federated",
                "metrics",
                "nn",
                "obs",
                "theory",
                "utils",
            ),
        },
    )

__version__ = "1.0.0"

__all__ = [
    "attacks",
    "autodiff",
    "core",
    "data",
    "engine",
    "faults",
    "federated",
    "metrics",
    "nn",
    "obs",
    "theory",
    "utils",
    "__version__",
]
