"""With the fast path on, no fit differentiates a recorded tape.

Every training step, evaluation and attack of the seven algorithms takes
a closed-form kernel: the meta kernel (exact, first-order, with
Robust FedML's ``D^adv`` as a second outer set, or with Meta-SGD's
per-parameter rates) or the first-order loss kernel.  So the reference
backward, which ``grad`` runs for every tape gradient, is never called —
on LogReg over Synthetic and on the batch-norm embedding model over
Sent140-like data, and with ``first_order=True`` for the three
algorithms that take it.
"""

import importlib
from dataclasses import replace

import pytest

from repro.autodiff import fastpath
from repro.data import (
    Sent140LikeConfig,
    SyntheticConfig,
    generate_sent140_like,
    generate_synthetic,
)
from repro.nn import EmbeddingClassifier, LogisticRegression

from .capture_golden import build_runners

#: the module, not the ``tensor`` constructor ``repro.autodiff`` exports
TAPE = importlib.import_module("repro.autodiff.tensor")
NODES = 6
#: a short schedule: two blocks, an evaluation at every aggregation
SCHEDULE = dict(t0=2, total_iterations=4, eval_every=1)
FIRST_ORDER = ("fedml", "robust-fedml", "adml")


def workload(dataset):
    if dataset == "synthetic":
        fed = generate_synthetic(SyntheticConfig(num_nodes=NODES, seed=1))
        return fed, LogisticRegression(60, 10)
    fed = generate_sent140_like(Sent140LikeConfig(num_nodes=NODES, seed=1))
    model = EmbeddingClassifier(
        vocab_size=fed.metadata["vocab_size"],
        embed_dim=4,
        seq_len=fed.metadata["seq_len"],
        hidden_dims=(8,),
        num_classes=2,
        batch_norm=True,
    )
    return fed, model


def runner_for(name, model, first_order):
    runner = build_runners(model)[name]
    changes = dict(SCHEDULE)
    if first_order:
        changes["first_order"] = True
    if name == "robust-fedml":
        changes["n0"] = 1  # generate D^adv at the first block's end
    return type(runner)(model, replace(runner.config, **changes))


@pytest.fixture
def backward_calls(monkeypatch):
    """A list that gains one entry per reference backward."""
    calls = []
    reference = TAPE._cotangents

    def spy(*args, **kwargs):
        calls.append(1)
        return reference(*args, **kwargs)

    monkeypatch.setattr(TAPE, "_cotangents", spy)
    return calls


CASES = [
    (name, False)
    for name in (
        "fedml", "robust-fedml", "fedavg", "fedprox", "reptile", "meta-sgd",
        "adml",
    )
] + [(name, True) for name in FIRST_ORDER]


@pytest.mark.parametrize("dataset", ["synthetic", "sent140"])
@pytest.mark.parametrize(
    "name, first_order", CASES,
    ids=[f"{n}{'-first-order' if fo else ''}" for n, fo in CASES],
)
def test_fit_runs_no_tape_backward(dataset, name, first_order, backward_calls):
    assert fastpath.enabled()
    fed, model = workload(dataset)
    runner = runner_for(name, model, first_order)
    before = fastpath.stats().fused_dispatches
    runner.fit(fed, list(range(NODES - 1)))
    assert fastpath.stats().fused_dispatches > before
    assert backward_calls == []


def test_the_spy_sees_the_tape(backward_calls):
    """The same spy counts the reference backward of a ``--no-fastpath``
    fit, so a zero above is no blind spot."""
    fed, model = workload("synthetic")
    with fastpath.disabled():
        runner_for("meta-sgd", model, False).fit(fed, list(range(NODES - 1)))
    assert backward_calls
