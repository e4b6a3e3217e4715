"""A model the closed-form kernels do not know trains on the tape.

The kernels serve ``LogisticRegression``, ``MLP`` and
``EmbeddingClassifier``.  Any other :class:`~repro.nn.Model` must reach
the autodiff tape on every path: a serial local step, the per-node
fallback of the vectorized executor and of the fleet's training wave,
evaluation and target adaptation.  It must never fail the kernels'
parameter-shape lookup, which knows only the built-ins.  ``Linear``
below computes logistic regression's logits, so each run is held, bit for
bit, to the built-in model's run with the fast path off, which is the
tape's arithmetic on both executors.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor, fastpath
from repro.core import (
    FedAvg,
    FedAvgConfig,
    FedML,
    FedMLConfig,
    FederatedReptile,
    ReptileConfig,
)
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import SerialExecutor, SgdStrategy, VectorizedExecutor
from repro.federated.fleet import (
    FleetConfig,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression, Model
from repro.nn import init as initializers


class Linear(Model):
    """``x @ W + b``: logistic regression's logits in a custom model."""

    def __init__(self, input_dim, num_classes):
        self.input_dim = input_dim
        self.output_dim = num_classes

    def init(self, rng):
        return {
            "W": initializers.glorot_uniform(
                rng, self.input_dim, self.output_dim
            ),
            "b": initializers.zeros((self.output_dim,)),
        }

    def apply(self, params, x):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        return x @ params["W"] + params["b"]


def assert_same(got, ref):
    assert sorted(got) == sorted(ref)
    for name in ref:
        assert np.array_equal(got[name].data, ref[name].data), name


RUNNERS = [
    (FedAvg, FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=4)),
    (FedML, FedMLConfig(alpha=0.05, beta=0.05, t0=2, total_iterations=4)),
    (
        FederatedReptile,
        ReptileConfig(inner_lr=0.05, outer_lr=0.5, t0=2, total_iterations=4),
    ),
]


@pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
@pytest.mark.parametrize(
    "runner, config", RUNNERS, ids=[r.__name__ for r, _ in RUNNERS]
)
def test_runners_fit_a_custom_model_on_the_tape(runner, config, executor):
    federated = generate_synthetic(SyntheticConfig(num_nodes=6, seed=0))
    sources = list(range(6))
    custom = runner(Linear(60, 10), config, executor=executor()).fit(
        federated, sources
    )
    with fastpath.disabled():
        builtin = runner(
            LogisticRegression(60, 10), config, executor=executor()
        ).fit(federated, sources)
    assert_same(custom.params, builtin.params)


def test_fleet_wave_trains_a_custom_model_node_by_node():
    """No custom-model node stacks: the whole wave takes the fallback."""

    def run(model, spy=None):
        shards = SyntheticShardFactory(seed=2)
        strategy = SgdStrategy(
            model(shards.input_dim, shards.num_classes),
            FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=6),
        )
        if spy is not None:
            strategy.local_block_vectorized = spy
        config = FleetConfig(
            fleet_size=300, sampled_per_round=12, rounds=3, local_steps=2,
            buffer_size=4, seed=2,
        )
        return FleetSimulator(strategy, config, shards=shards).run()

    stacked = []
    custom = run(Linear, spy=lambda nodes, steps, rngs: stacked.append(nodes))
    assert stacked == []
    with fastpath.disabled():
        builtin = run(LogisticRegression)
    assert custom.updates_aggregated == builtin.updates_aggregated == 36
    assert_same(custom.params, builtin.params)
