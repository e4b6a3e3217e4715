"""Capture the tape golden: the runs that still train on the autodiff tape.

FOMAML (FedML with ``first_order=True``) and Meta-SGD have no closed-form
kernel, so every local step differentiates a recorded graph with
``grad(..., create_graph=False)``.  Run this against a known-good revision
of the autodiff engine to (re)generate ``tape_golden.json``::

    PYTHONPATH=src python tests/federated/capture_tape_golden.py

``test_tape_golden.py`` then asserts the current code reproduces it bit
for bit: final θ, Meta-SGD's learned log-rates and every history value.
Each algorithm runs on LogReg over Synthetic and on the batch-norm
``EmbeddingClassifier`` over Sent140-like data, 6 nodes and 10
iterations: the capture and the test both run in about a second.
"""

import json
import pathlib

from repro.autodiff import fastpath
from repro.core import FederatedMetaSGD, FedML, FedMLConfig, MetaSGDConfig
from repro.data import (
    Sent140LikeConfig,
    SyntheticConfig,
    generate_sent140_like,
    generate_synthetic,
)
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import to_vector

HERE = pathlib.Path(__file__).resolve().parent
OUT = HERE / "tape_golden.json"

NODES = 6
SCHEDULE = dict(t0=2, total_iterations=10, k=3, eval_every=1, seed=0)
RUNS = (
    ("fomaml", "logreg"),
    ("fomaml", "embedding"),
    ("meta-sgd", "logreg"),
    ("meta-sgd", "embedding"),
)


def build_workload(dataset):
    """``(federated, sources, model)``: LogReg or the batch-norm embedding
    model, with the last node held out as the target."""
    if dataset == "logreg":
        fed = generate_synthetic(SyntheticConfig(num_nodes=NODES, seed=1))
        model = LogisticRegression(60, 10)
    else:
        fed = generate_sent140_like(Sent140LikeConfig(num_nodes=NODES, seed=1))
        model = EmbeddingClassifier(
            vocab_size=fed.metadata["vocab_size"],
            embed_dim=4,
            seq_len=fed.metadata["seq_len"],
            hidden_dims=(8,),
            num_classes=2,
            batch_norm=True,
        )
    return fed, list(range(NODES - 1)), model


def build_runner(algorithm, model):
    if algorithm == "fomaml":
        config = FedMLConfig(alpha=0.05, beta=0.05, first_order=True, **SCHEDULE)
        return FedML(model, config)
    return FederatedMetaSGD(
        model, MetaSGDConfig(alpha_init=0.05, beta=0.05, **SCHEDULE)
    )


def run(algorithm, dataset):
    """The pinned fields of one tape-trained fit."""
    fed, sources, model = build_workload(dataset)
    result = build_runner(algorithm, model).fit(fed, sources)
    pinned = {
        "final_params": to_vector(result.params).tolist(),
        "records": result.history.records,
    }
    if algorithm == "meta-sgd":
        pinned["log_alpha"] = to_vector(result.log_alpha).tolist()
    return pinned


def capture():
    golden = {}
    with fastpath.disabled():
        for algorithm, dataset in RUNS:
            key = f"{algorithm}/{dataset}"
            golden[key] = run(algorithm, dataset)
        print(f"{key}: {len(golden[key]['records'])} history records captured")
    OUT.write_text(json.dumps(golden, indent=1))
    print(f"wrote {OUT}")


if __name__ == "__main__":
    capture()
