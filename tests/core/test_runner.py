"""FederatedRunner: a runner customizes a local step through its strategy,
and a runner fit twice trains each fit on its own data."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (
    FedAvg,
    FedAvgConfig,
    FedML,
    FedMLConfig,
    FedProx,
    FedProxConfig,
)
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import MetaStrategy, RoundEngine, SerialExecutor, VectorizedExecutor
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

MODEL = LogisticRegression(60, 10)
CONFIG = FedMLConfig(alpha=0.05, beta=0.05, t0=2, total_iterations=6, k=3, seed=0)


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=5, mean_samples=12, seed=1)
    )
    return fed, list(range(5))


class CorruptNodeStrategy(MetaStrategy):
    """FedML's local step, after which node 2 holds a constant tree."""

    # The stacked block would skip the corruption below.
    supports_vectorized = False

    def local_step(self, node):
        value = super().local_step(node)
        if node.node_id == 2:
            node.params = {
                name: Tensor(np.full(t.shape, 5.0))
                for name, t in node.params.items()
            }
        return value


class CorruptNodeFedML(FedML):
    strategy_type = CorruptNodeStrategy


@pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
def test_strategy_override_trains_through_fit(workload, executor):
    fed, sources = workload
    runner = CorruptNodeFedML(MODEL, CONFIG, executor=executor())
    assert isinstance(runner.strategy, CorruptNodeStrategy)
    result = runner.fit(fed, sources)

    reference = RoundEngine(
        CorruptNodeStrategy(MODEL, CONFIG), executor=executor()
    ).fit(fed, sources)
    np.testing.assert_array_equal(
        to_vector(result.params), to_vector(reference.params)
    )
    assert result.history.records == reference.history.records

    plain = FedML(MODEL, CONFIG, executor=executor()).fit(fed, sources)
    assert not np.array_equal(to_vector(result.params), to_vector(plain.params))


@pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
@pytest.mark.parametrize(
    "runner_type, config",
    [
        (FedAvg, FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=6)),
        (
            FedProx,
            FedProxConfig(
                learning_rate=0.05, mu_prox=0.5, t0=2, total_iterations=6
            ),
        ),
    ],
    ids=["fedavg", "fedprox"],
)
def test_second_fit_trains_on_its_own_data(runner_type, config, executor):
    """A runner fit on one federation, then on another sharing its node
    ids, ends where a fresh runner's fit of the second one does."""

    def federation(seed):
        return generate_synthetic(
            SyntheticConfig(
                alpha=0.5, beta=0.5, num_nodes=10, mean_samples=12,
                seed=seed,
            )
        )

    sources = list(range(8))
    runner = runner_type(MODEL, config, executor=executor())
    runner.fit(federation(1), sources)
    again = runner.fit(federation(2), sources)
    fresh = runner_type(MODEL, config, executor=executor()).fit(
        federation(2), sources
    )
    np.testing.assert_array_equal(
        to_vector(again.params), to_vector(fresh.params)
    )
    assert again.history.records == fresh.history.records
