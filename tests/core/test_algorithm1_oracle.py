"""Algorithm 1 against its closed form on a quadratic federation.

With linear regression and squared loss every ``G_i`` is quadratic, so a
local step is an affine map ``θ ← P_i θ + q_i`` and a round of ``T0``
steps followed by the eq.-5 weighted aggregation is

    θ ← Σ ω_i (P_i^T0 θ + s_i),   s_i = Σ_{k<T0} P_i^k q_i.

Per node, with ``L(θ; X, y) = ‖Xθ − y‖² / n``, ``∇L = A θ − b`` for
``A = 2 XᵀX / n`` and ``b = 2 Xᵀy / n``.  Exact FedML's meta-step (eq. 3
and 4) has ``M = I − α A_train``, ``P = I − β M A_test M`` and ``q = −β M
(α A_test b_train − b_test)``; FedAvg's step on all local data has ``P = I
− η A`` and ``q = η b``.  The engine's θ_T must equal that trajectory
within 1e-12 relative for ``T0`` in {1, 5, 10}, on both executors.  The
kernels take cross-entropy only, so this pins the per-node tape path that
runs every node they do not serve.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import FedAvg, FedAvgConfig, FedML, FedMLConfig
from repro.data import Dataset, FederatedDataset
from repro.engine import SerialExecutor, VectorizedExecutor
from repro.nn import Model
from repro.nn.losses import mse

NODES = 8
DIM = 5
ALPHA = BETA = 0.05
TOTAL = 200
K = 3
REL_TOL = 1e-12


class LinearRegression(Model):
    """``x @ w``: one output, no bias."""

    def __init__(self, dim):
        self.input_dim = dim
        self.output_dim = 1

    def init(self, rng):
        return {"w": Tensor(0.1 * rng.normal(size=(self.input_dim, 1)))}

    def apply(self, params, x):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        return x @ params["w"]


@pytest.fixture(scope="module")
def federation():
    """Heterogeneous nodes: each its own true weights and size."""
    rng = np.random.default_rng(11)
    nodes = []
    for i in range(NODES):
        x = rng.normal(size=(8 + 2 * i, DIM))
        w = rng.normal(size=(DIM, 1))
        nodes.append(Dataset(x, x @ w + 0.1 * rng.normal(size=(len(x), 1))))
    fed = FederatedDataset(name="quadratic", nodes=nodes, num_classes=1)
    init = {"w": Tensor(rng.normal(size=(DIM, 1)))}
    return fed, list(range(NODES)), init


def quadratic(data):
    """``(A, b)`` with ``∇L(θ) = A θ − b`` on ``data``."""
    n = len(data)
    return 2.0 * data.x.T @ data.x / n, 2.0 * data.x.T @ data.y / n


def fedml_map(node):
    a_train, b_train = quadratic(node.split.train)
    a_test, b_test = quadratic(node.split.test)
    m = np.eye(DIM) - ALPHA * a_train
    return (
        np.eye(DIM) - BETA * m @ a_test @ m,
        -BETA * m @ (ALPHA * a_test @ b_train - b_test),
    )


def fedavg_map(node):
    a, b = quadratic(node.split.train.concat(node.split.test))
    return np.eye(DIM) - BETA * a, BETA * b


def oracle(nodes, step_map, theta, t0):
    """θ_T of Algorithm 1 in closed form."""
    weights = np.array([node.weight for node in nodes])
    weights = weights / weights.sum()
    rounds = []
    for node in nodes:
        p, q = step_map(node)
        p_t0, s = np.eye(DIM), np.zeros((DIM, 1))
        for _ in range(t0):
            p_t0, s = p @ p_t0, p @ s + q
        rounds.append((p_t0, s))
    for _ in range(TOTAL // t0):
        theta = sum(w * (p @ theta + s) for w, (p, s) in zip(weights, rounds))
    return theta


RUNNERS = {
    "fedml": (FedML, FedMLConfig, dict(alpha=ALPHA, beta=BETA, k=K), fedml_map),
    "fedavg": (FedAvg, FedAvgConfig, dict(learning_rate=BETA), fedavg_map),
}


@pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
@pytest.mark.parametrize("t0", [1, 5, 10])
@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_theta_follows_the_closed_form(federation, name, t0, executor):
    fed, sources, init = federation
    runner_cls, config_cls, knobs, step_map = RUNNERS[name]
    config = config_cls(
        t0=t0, total_iterations=TOTAL, eval_every=TOTAL, seed=0, **knobs
    )
    runner = runner_cls(
        LinearRegression(DIM), config, loss_fn=mse, executor=executor()
    )
    result = runner.fit(fed, sources, init_params=init)
    nodes = runner.strategy.build_nodes(fed, sources)
    expected = oracle(nodes, step_map, init["w"].data, t0)
    got = result.params["w"].data
    assert np.max(np.abs(got - expected)) <= REL_TOL * np.max(np.abs(expected))
