"""Executor determinism: the per-node stream contract and error context.

The contract under test (see ``docs/ENGINE.md``): both executors bind the
same per-node generator ``default_rng([base_seed, block_index, node_id])``,
so a strategy drawing randomness sees the same stream whether its block
runs node by node or stacked.  The generator is seeded on its first draw,
so a block that never draws builds none.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.analysis.determinism import install_ledger, uninstall_ledger
from repro.autodiff import Tensor
from repro.core import FedAvg, FedAvgConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import (
    ExecutorError,
    LocalStrategy,
    RoundEngine,
    SerialExecutor,
    VectorizedExecutor,
)
from repro.engine.executors import _node_rng
from repro.nn import LogisticRegression
from repro.nn.batched import stack_params, unstack_params
from repro.nn.parameters import add_scaled, to_vector, zeros_like_params


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=6, mean_samples=20, seed=1)
    )
    return fed, list(range(6)), LogisticRegression(60, 10)


class NoisyConfig:
    """Minimal engine config."""

    t0 = 2
    total_iterations = 4
    eval_every = 1
    seed = 7
    k = 3


class NoisyStrategy(LocalStrategy):
    """Draws from the bound per-node generator every step.

    Exercises the deterministic seeding contract: the same noise stream
    must be observed per (block, node) regardless of executor.
    """

    name = "noisy"

    def local_step(self, node):
        assert self._node_rng is not None
        noise = zeros_like_params(node.params)
        for tensor in noise.values():
            tensor.data[...] = self._node_rng.standard_normal(tensor.shape)
        node.params = add_scaled(node.params, noise, 0.01)
        node.record_local_step(gradient_evals=0)
        return 0.0

    def evaluate(self, params, nodes):
        return {"param_norm": float(np.linalg.norm(to_vector(params)))}


class StackedNoisyStrategy(NoisyStrategy):
    """:class:`NoisyStrategy` that opts into stacked execution.

    ``local_block_vectorized`` draws node ``i``'s noise from ``rngs[i]``
    in the order ``local_step`` draws it from ``self._node_rng`` (step by
    step, tensor by tensor), and the update is elementwise, so a stacked
    block must reproduce the serial one bit for bit.
    """

    name = "stacked-noisy"
    supports_vectorized = True

    def vectorized_signature(self, node):
        return ("noisy",)

    def local_block_vectorized(self, nodes, steps, rngs):
        shapes = {name: t.shape for name, t in nodes[0].params.items()}
        stacked = stack_params([node.params for node in nodes])
        for _ in range(steps):
            noise = {name: [] for name in shapes}
            for rng in rngs:
                for name, shape in shapes.items():
                    noise[name].append(rng.standard_normal(shape))
            stacked = add_scaled(
                stacked,
                {name: Tensor(np.stack(rows)) for name, rows in noise.items()},
                0.01,
            )
        for node, params in zip(nodes, unstack_params(stacked, len(nodes))):
            node.params = params
            for _ in range(steps):
                node.record_local_step(gradient_evals=0)


class TestVectorizedMatchesSerial:
    """The per-node stream contract on the stacked path."""

    def _fit(self, workload, executor):
        fed, sources, model = workload
        strategy = StackedNoisyStrategy(model, NoisyConfig())
        ledger = install_ledger()
        try:
            result = RoundEngine(strategy, executor=executor).fit(fed, sources)
        finally:
            uninstall_ledger()
        return result, ledger.as_dicts()

    def test_stochastic_strategy_same_stream(self, workload):
        """A stacked block sees each node's serial stream, draw for draw."""
        serial, serial_ledger = self._fit(workload, SerialExecutor())
        stacked, stacked_ledger = self._fit(workload, VectorizedExecutor())
        np.testing.assert_array_equal(
            to_vector(serial.params), to_vector(stacked.params)
        )
        assert serial.history.records == stacked.history.records
        assert [n.local_steps for n in serial.nodes] == [
            n.local_steps for n in stacked.nodes
        ]
        assert serial_ledger == stacked_ledger
        assert all(row["draws"] > 0 for row in serial_ledger)


class DrawRecorder(LocalStrategy):
    """Keeps every draw a node's block makes from its bound generator."""

    name = "draw-recorder"

    def __init__(self, model, config):
        super().__init__(model, config)
        self.draws = {}

    def local_step(self, node):
        self.draws.setdefault(node.node_id, []).append(
            self._node_rng.random(3)
        )
        node.record_local_step(gradient_evals=0)
        return 0.0


class StackedDrawRecorder(DrawRecorder):
    """:class:`DrawRecorder` as one stacked block per group."""

    name = "stacked-draw-recorder"
    supports_vectorized = True

    def vectorized_signature(self, node):
        return ("draws",)

    def local_block_vectorized(self, nodes, steps, rngs):
        for _ in range(steps):
            for node, rng in zip(nodes, rngs):
                self.draws.setdefault(node.node_id, []).append(rng.random(3))


@pytest.fixture
def built_seeds(monkeypatch):
    """The seed of every ``np.random.default_rng`` built during a test."""
    seeds = []
    real = np.random.default_rng

    def spy(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return seeds


def node_keys(seeds):
    """The ``[seed, block, node]`` lists among ``built_seeds``."""
    return {tuple(seed) for seed in seeds if isinstance(seed, list)}


class TestLazyNodeStreams:
    """The per-node generator is built on its first draw, and only then."""

    @pytest.mark.parametrize("ledger", [False, True])
    @pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
    def test_fedavg_fit_builds_no_node_generator(
        self, workload, built_seeds, executor, ledger
    ):
        fed, sources, model = workload
        config = FedAvgConfig(
            learning_rate=0.05, t0=2, total_iterations=4, seed=7
        )
        recorder = install_ledger() if ledger else None
        try:
            FedAvg(model, config, executor=executor()).fit(fed, sources)
        finally:
            uninstall_ledger()
        streams = {(7, block, node) for block in range(2) for node in sources}
        assert built_seeds  # the spy sees the fit's own generators
        assert not streams & node_keys(built_seeds)
        if recorder is not None:  # every stream is still listed, undrawn
            assert {
                (7, row["block"], row["node"]) for row in recorder.as_dicts()
            } == streams
            assert recorder.total_draws == 0

    @pytest.mark.parametrize("ledger", [False, True])
    @pytest.mark.parametrize("executor", [SerialExecutor, VectorizedExecutor])
    @pytest.mark.parametrize("strategy_cls", [DrawRecorder, StackedDrawRecorder])
    def test_drawing_strategy_gets_the_seeded_stream(
        self, workload, built_seeds, strategy_cls, executor, ledger
    ):
        fed, sources, model = workload
        strategy = strategy_cls(model, NoisyConfig())
        nodes = strategy.build_nodes(fed, sources)
        recorder = install_ledger() if ledger else None
        try:
            executor().run_block(
                strategy, nodes, 3, block_index=5, base_seed=11
            )
        finally:
            uninstall_ledger()
        assert node_keys(built_seeds) == {(11, 5, n) for n in sources}
        for node_id in sources:
            expected = np.random.default_rng([11, 5, node_id])
            for draw in strategy.draws[node_id]:
                np.testing.assert_array_equal(draw, expected.random(3))
        if recorder is not None:
            rows = recorder.as_dicts()
            assert [(row["node"], row["draws"]) for row in rows] == [
                (node_id, 3) for node_id in sources
            ]

    @pytest.mark.parametrize("drawn", [0, 2])
    def test_copies_and_pickles_as_the_generator(self, drawn):
        rng = _node_rng(11, 5, 3)
        expected = np.random.default_rng([11, 5, 3])
        for _ in range(drawn):
            np.testing.assert_array_equal(rng.random(3), expected.random(3))
        for twin in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
            assert isinstance(twin, np.random.Generator)
            assert twin.bit_generator.state == expected.bit_generator.state


class ExplodingStrategy(NoisyStrategy):
    """Fails every step on selected nodes."""

    name = "exploding"
    fail_nodes = frozenset({3})

    def local_step(self, node):
        if node.node_id in self.fail_nodes:
            raise ValueError("injected worker failure")
        return super().local_step(node)


class TestExecutorErrors:
    """A node raising mid-block surfaces with its node and block."""

    def _fit(self, workload, executor):
        fed, sources, model = workload
        strategy = ExplodingStrategy(model, NoisyConfig())
        return RoundEngine(strategy, executor=executor).fit(fed, sources)

    def test_serial_error_carries_node_and_block(self, workload):
        with pytest.raises(ExecutorError) as excinfo:
            self._fit(workload, SerialExecutor())
        err = excinfo.value
        assert err.node_id == 3
        assert err.block_index == 0
        assert "node 3" in str(err)
        assert "block 0" in str(err)
        assert isinstance(err.__cause__, ValueError)
