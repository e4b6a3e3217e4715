"""Algorithm 1 against its closed form on a quadratic federation.

With linear regression and squared loss every ``G_i`` is quadratic, so a
local step is an affine map ``θ_i ← P_i θ_i + R_i θ + q_i`` of the node's
iterate and the round's θ (``R_i = 0`` except for FedProx's anchor).
With ``θ_i = θ`` at the round's start, ``T0`` steps give ``θ_i = U_i θ +
s_i`` (``U ← P U + R``, ``s ← P s + q`` from ``U = I``, ``s = 0``), and
the eq.-5 weighted aggregation makes a round

    θ ← Σ ω_i (U_i θ + s_i).

Per node, with ``L(θ; X, y) = ‖Xθ − y‖² / n``, ``∇L = A θ − b`` for
``A = 2 XᵀX / n`` and ``b = 2 Xᵀy / n``:

* exact FedML's meta-step (eq. 3 and 4) has ``M = I − α A_train``,
  ``P = I − β M A_test M`` and ``q = −β M (α A_test b_train − b_test)``;
* FOMAML's drops the inner step's Jacobian, the leading ``M``:
  ``P = I − β A_test M`` and ``q = −β (α A_test b_train − b_test)``;
* FedAvg's step on all local data has ``P = I − η A`` and ``q = η b``;
* FedProx's adds ``μ (θ_i − θ)``: ``P = I − η (A + μI)``, ``R = η μ I``
  and ``q = η b``;
* Reptile's takes ``s`` inner SGD steps ``φ ← M φ + α b`` (``M = I − α A``)
  from ``θ_i`` and moves ``ε`` of the way: ``P = (1 − ε) I + ε M^s`` and
  ``q = ε c`` with ``c = Σ_{k<s} M^k α b``.

The engine's θ_T must equal that trajectory within 1e-12 relative for
``T0`` in {1, 5, 10}, on both executors.  The kernels take cross-entropy
only, so this pins the per-node tape path that runs every node they do
not serve.

The federation's targets are real-valued, so it also carries Robust
FedML's kill-and-resume leg: its checkpointed ``D^adv`` labels must come
back unchanged.
"""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import (
    FedAvg,
    FedAvgConfig,
    FederatedReptile,
    FedML,
    FedMLConfig,
    ReptileConfig,
    RobustFedML,
    RobustFedMLConfig,
)
from repro.core.fedprox import FedProx, FedProxConfig
from repro.data import Dataset, FederatedDataset
from repro.engine import EngineOptions, SerialExecutor, VectorizedExecutor
from repro.faults import FaultPlan, KillSchedule, RunInterrupted
from repro.nn import Model
from repro.nn.losses import mse

NODES = 8
DIM = 5
ALPHA = BETA = 0.05
MU = 0.1  # FedProx's proximal coefficient
EPSILON = 0.5  # Reptile's outer step
INNER_STEPS = 2  # Reptile's inner SGD steps
TOTAL = 200
K = 3
REL_TOL = 1e-12
IDENTITY = np.eye(DIM)
NO_ANCHOR = np.zeros((DIM, DIM))


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


def full_quadratic(node):
    """``(A, b)`` on all of the node's data, as the first-order steps see it."""
    return quadratic(node.split.train.concat(node.split.test))


def fedml_map(node):
    a_train, b_train = quadratic(node.split.train)
    a_test, b_test = quadratic(node.split.test)
    m = IDENTITY - ALPHA * a_train
    return (
        IDENTITY - BETA * m @ a_test @ m,
        NO_ANCHOR,
        -BETA * m @ (ALPHA * a_test @ b_train - b_test),
    )


def fomaml_map(node):
    a_train, b_train = quadratic(node.split.train)
    a_test, b_test = quadratic(node.split.test)
    m = IDENTITY - ALPHA * a_train
    return (
        IDENTITY - BETA * a_test @ m,
        NO_ANCHOR,
        -BETA * (ALPHA * a_test @ b_train - b_test),
    )


def fedavg_map(node):
    a, b = full_quadratic(node)
    return IDENTITY - BETA * a, NO_ANCHOR, BETA * b


def fedprox_map(node):
    a, b = full_quadratic(node)
    return IDENTITY - BETA * (a + MU * IDENTITY), BETA * MU * IDENTITY, BETA * b


def reptile_map(node):
    a, b = full_quadratic(node)
    m = IDENTITY - ALPHA * a
    m_s, c = IDENTITY, np.zeros((DIM, 1))
    for _ in range(INNER_STEPS):
        m_s, c = m @ m_s, m @ c + ALPHA * b
    return (1 - EPSILON) * IDENTITY + EPSILON * m_s, NO_ANCHOR, EPSILON * c


def oracle(nodes, step_map, theta, t0):
    """θ_T of Algorithm 1 in closed form."""
    weights = np.array([node.weight for node in nodes])
    weights = weights / weights.sum()
    rounds = []
    for node in nodes:
        p, r, q = step_map(node)
        u, s = IDENTITY, np.zeros((DIM, 1))
        for _ in range(t0):
            u, s = p @ u + r, p @ s + q
        rounds.append((u, s))
    for _ in range(TOTAL // t0):
        theta = sum(w * (u @ theta + s) for w, (u, s) in zip(weights, rounds))
    return theta


RUNNERS = {
    "fedml": (FedML, FedMLConfig, dict(alpha=ALPHA, beta=BETA, k=K), fedml_map),
    "fomaml": (
        FedML, FedMLConfig,
        dict(alpha=ALPHA, beta=BETA, k=K, first_order=True), fomaml_map,
    ),
    "fedavg": (FedAvg, FedAvgConfig, dict(learning_rate=BETA), fedavg_map),
    "fedprox": (
        FedProx, FedProxConfig, dict(learning_rate=BETA, mu_prox=MU),
        fedprox_map,
    ),
    "reptile": (
        FederatedReptile,
        ReptileConfig,
        dict(
            inner_lr=ALPHA, outer_lr=EPSILON, inner_steps=INNER_STEPS, k=K
        ),
        reptile_map,
    ),
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


@pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
def test_robust_fedml_resumes_bit_equal_on_real_valued_labels(
    federation, executor, tmp_path
):
    """Algorithm 2 on the same federation, killed after its two
    generation rounds and resumed, equals the uninterrupted run bit for
    bit.  ``D^adv`` copies the nodes' real-valued targets, and the
    checkpoint must give them back as they were, not cast to integers
    (2.043 → 2)."""
    fed, sources, init = federation
    config = RobustFedMLConfig(
        alpha=ALPHA, beta=BETA, k=K, t0=2, total_iterations=40,
        eval_every=40, seed=0, lam=4.0, nu=0.05, ta=5, n0=2, r_max=2,
    )
    options = EngineOptions(
        faults=FaultPlan([KillSchedule(block=5)]),
        checkpoint_path=str(tmp_path / "run.ckpt"),
    )

    def fit(engine_options=None, resume=False):
        runner = RobustFedML(
            LinearRegression(DIM), config, loss_fn=mse, executor=executor(),
            engine_options=engine_options,
        )
        return runner.fit(fed, sources, init_params=init, resume=resume)

    with pytest.raises(RunInterrupted):
        fit(options)
    resumed = fit(options, resume=True)
    baseline = fit()
    assert all(
        node.adversarial.y.dtype == np.float64 for node in resumed.nodes
    )
    assert resumed.params["w"].data.tobytes() == (
        baseline.params["w"].data.tobytes()
    )
