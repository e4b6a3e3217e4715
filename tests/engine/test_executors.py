"""Executor determinism: the per-node stream contract and error context.

The contract under test (see ``docs/ENGINE.md``): both executors bind the
same per-node generator ``default_rng([base_seed, block_index, node_id])``,
so a strategy drawing randomness sees the same stream whether its block
runs node by node or stacked.
"""

import numpy as np
import pytest

from repro.analysis.determinism import install_ledger, uninstall_ledger
from repro.autodiff import Tensor
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import (
    ExecutorError,
    LocalStrategy,
    RoundEngine,
    SerialExecutor,
    VectorizedExecutor,
)
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
