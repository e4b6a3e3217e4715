"""Vectorized executor equivalence, fallback, failures and telemetry.

The contract under test (see ``docs/ENGINE.md``): the two executors run
one block loop and differ only in how they group nodes, so a vectorized
run equals the serial run bit for bit — θ, history and per-node counters
— whether its nodes take the stacked kernels (one group per signature) or
their own ``local_step`` (no signature: the fast path off, FOMAML, or a
strategy that does not stack).  A failing stack is charged to the node
whose own block fails, as on the serial executor.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.autodiff import fastpath
from repro.core import (
    FedAvg,
    FedAvgConfig,
    FedML,
    FedMLConfig,
    FedProx,
    FedProxConfig,
    RobustFedML,
    RobustFedMLConfig,
)
from repro.data import (
    Dataset,
    FederatedDataset,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_sent140_like,
    generate_synthetic,
)
from repro.engine import (
    EngineOptions,
    ExecutorError,
    MetaStrategy,
    RoundEngine,
    SerialExecutor,
    SgdStrategy,
    VectorizedExecutor,
)
from repro.engine import strategies
from repro.faults import ResiliencePolicy
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import clone, to_vector

from .test_executors import NoisyConfig, NoisyStrategy


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=6, mean_samples=20, seed=1)
    )
    return fed, list(range(6)), LogisticRegression(60, 10)


RUNNERS = [
    (
        FedML,
        FedMLConfig(alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=3, seed=0),
    ),
    (
        FedAvg,
        FedAvgConfig(learning_rate=0.05, t0=3, total_iterations=6, seed=0),
    ),
    (
        FedProx,
        FedProxConfig(
            learning_rate=0.05, mu_prox=0.1, t0=3, total_iterations=6, seed=0
        ),
    ),
    (
        # D^adv is generated at the first block end, so the second block
        # stacks it as a second outer set.
        RobustFedML,
        RobustFedMLConfig(
            alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=3, seed=0,
            ta=1, n0=1, r_max=1,
        ),
    ),
]


def _fit(workload, runner_cls, config, executor, telemetry=None, **kwargs):
    fed, sources, model = workload
    return runner_cls(
        model, config, telemetry=telemetry, executor=executor, **kwargs
    ).fit(fed, sources)


def assert_same_run(first, second):
    """θ, history and per-node counters equal bit for bit."""
    assert np.array_equal(to_vector(first.params), to_vector(second.params))
    assert first.history.records == second.history.records
    assert [n.local_steps for n in first.nodes] == [
        n.local_steps for n in second.nodes
    ]
    assert [n.gradient_evaluations for n in first.nodes] == [
        n.gradient_evaluations for n in second.nodes
    ]


class TestVectorizedMatchesSerial:
    @pytest.mark.parametrize("runner_cls,config", RUNNERS)
    def test_bit_equal_to_serial(self, workload, runner_cls, config):
        serial = _fit(workload, runner_cls, config, SerialExecutor())
        vectorized = _fit(workload, runner_cls, config, VectorizedExecutor())
        assert_same_run(serial, vectorized)

    @pytest.mark.parametrize("runner_cls,config", RUNNERS)
    def test_double_run_bit_identical(self, workload, runner_cls, config):
        first = _fit(workload, runner_cls, config, VectorizedExecutor())
        second = _fit(workload, runner_cls, config, VectorizedExecutor())
        assert (
            to_vector(first.params).tobytes()
            == to_vector(second.params).tobytes()
        )
        assert first.history.records == second.history.records


class TestSerialFallback:
    def test_non_vectorized_strategy_matches_serial_bitwise(self, workload):
        """A strategy without the capability flag runs through the internal
        serial fallback and must be bit-for-bit equal to SerialExecutor."""
        fed, sources, model = workload
        assert NoisyStrategy.supports_vectorized is False

        def run(executor):
            strategy = NoisyStrategy(model, NoisyConfig())
            return RoundEngine(strategy, executor=executor).fit(fed, sources)

        serial = run(SerialExecutor())
        vectorized = run(VectorizedExecutor())
        np.testing.assert_array_equal(
            to_vector(serial.params), to_vector(vectorized.params)
        )
        assert serial.history.records == vectorized.history.records

    def test_ragged_nodes_fall_back_per_node(self, workload):
        """Nodes with distinct data shapes form distinct signature groups —
        the groups cover every node exactly once, in node order."""
        fed, sources, model = workload
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=2, seed=0)
        strategy = FedAvg(model, config).strategy
        nodes = strategy.build_nodes(fed, sources)
        for executor in (SerialExecutor(), VectorizedExecutor()):
            groups = executor._groups(strategy, nodes)
            covered = [n.node_id for _, group in groups for n in group]
            assert sorted(covered) == sorted(n.node_id for n in nodes)
            assert all(stacked for stacked, _ in groups)
        assert all(
            len(group) == 1 for _, group in SerialExecutor()._groups(
                strategy, nodes
            )
        )


class FailsOnNode3(SgdStrategy):
    """FedAvg whose block raises whenever node 3 is in its group."""

    def local_block_vectorized(self, nodes, steps, rngs):
        if any(node.node_id == 3 for node in nodes):
            raise ValueError("node 3 fails")
        super().local_block_vectorized(nodes, steps, rngs)


class TestFailureAttribution:
    """A failing stack is charged to the node whose own block fails."""

    @pytest.fixture(scope="class")
    def uniform(self):
        # Six same-size nodes: the vectorized executor stacks all of them.
        rng = np.random.default_rng(3)
        nodes = [
            Dataset(rng.normal(size=(12, 60)), rng.integers(0, 10, size=12))
            for _ in range(6)
        ]
        fed = FederatedDataset(name="uniform", nodes=nodes, num_classes=10)
        return fed, list(range(6)), LogisticRegression(60, 10)

    def _fit(self, uniform, executor):
        fed, sources, model = uniform
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=2, seed=0)
        strategy = FailsOnNode3(model, config)
        groups = executor._groups(strategy, strategy.build_nodes(fed, sources))
        options = EngineOptions(
            resilience=ResiliencePolicy(drop_on_failure=True, max_retries=0)
        )
        result = RoundEngine(
            strategy, executor=executor, options=options
        ).fit(fed, sources)
        return result, groups

    def test_only_the_failing_node_is_dropped(self, uniform):
        serial, _ = self._fit(uniform, SerialExecutor())
        vectorized, groups = self._fit(uniform, VectorizedExecutor())
        assert [len(group) for _, group in groups] == [6]
        assert [n.local_steps for n in serial.nodes] == [2, 2, 2, 0, 2, 2]
        assert_same_run(serial, vectorized)

    def test_failed_stack_leaks_nothing_into_its_nodes(
        self, uniform, monkeypatch
    ):
        """The FedML block steps its own stack in place.  Its kernel here
        raises on the third step of a stack of several nodes, after two
        in-place steps; each node then runs alone and passes, so it must
        end as its clean one-node block does, and the group's first node
        carries the error."""
        real = strategies.batched_meta_gradient

        def failing(*args, **kwargs):
            kernel, calls = real(*args, **kwargs), []

            def call(theta, **outputs):
                calls.append(len(theta["b"]))
                if len(calls) == 3 and calls[-1] > 1:
                    raise FloatingPointError("third stacked step")
                return kernel(theta, **outputs)

            return call

        monkeypatch.setattr(strategies, "batched_meta_gradient", failing)
        fed, sources, model = uniform
        strategy = MetaStrategy(
            model, FedMLConfig(alpha=0.05, beta=0.05, t0=4, k=3, seed=0)
        )
        theta = model.init(np.random.default_rng(0))

        def nodes_at_theta():
            nodes = strategy.build_nodes(fed, sources)
            for node in nodes:
                node.params = clone(theta)
            return nodes

        clean, nodes = nodes_at_theta(), nodes_at_theta()
        SerialExecutor().run_block(
            strategy, clean, 4, block_index=0, base_seed=0
        )
        with pytest.raises(ExecutorError) as raised:
            VectorizedExecutor().run_block(
                strategy, nodes, 4, block_index=0, base_seed=0
            )
        assert raised.value.node_id == nodes[0].node_id
        assert isinstance(raised.value.__cause__, FloatingPointError)
        for node, want in zip(nodes, clean):
            assert node.local_steps == want.local_steps == 4
            for name, t in want.params.items():
                assert np.array_equal(node.params[name].data, t.data), name


class TestTelemetry:
    def _run_with_telemetry(self, workload, fingerprints=False):
        from repro.obs import MemorySink, Telemetry

        sink = MemorySink()
        tel = Telemetry(sink=sink, node_fingerprints=fingerprints)
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=4, seed=0)
        _fit(workload, FedAvg, config, VectorizedExecutor(), telemetry=tel)
        return sink, tel

    def test_vectorized_block_events_and_counters(self, workload):
        sink, tel = self._run_with_telemetry(workload)
        blocks = [r for r in sink.records if r.get("kind") == "vectorized_block"]
        assert len(blocks) == 2  # total_iterations / t0
        for record in blocks:
            assert record["vectorized_nodes"] == 6
            assert record["fallback_nodes"] == 0
            assert record["groups"] >= 1
            # Schema v3 dropped the compiled backward's buffer fields.
            assert set(record) == {
                "type", "v", "seq", "kind", "block",
                "vectorized_nodes", "fallback_nodes", "groups",
            }
        assert tel.registry.get("fl_vectorized_nodes_total").value == 12
        assert tel.registry.get("fl_vectorized_fallback_total").value == 0

    def test_node_results_carry_vectorized_flag_and_fingerprint(self, workload):
        sink, _ = self._run_with_telemetry(workload, fingerprints=True)
        results = [r for r in sink.records if r.get("kind") == "node_result"]
        assert results, "expected node_result events"
        assert all(r.get("vectorized") is True for r in results)
        assert all("params_fp" in r for r in results)

    def test_fallback_nodes_counted(self, workload):
        from repro.obs import MemorySink, Telemetry

        fed, sources, model = workload
        sink = MemorySink()
        tel = Telemetry(sink=sink)
        strategy = NoisyStrategy(model, NoisyConfig())
        RoundEngine(
            strategy, executor=VectorizedExecutor(), telemetry=tel
        ).fit(fed, sources)
        blocks = [r for r in sink.records if r.get("kind") == "vectorized_block"]
        assert blocks
        assert all(r["vectorized_nodes"] == 0 for r in blocks)
        assert all(r["fallback_nodes"] == 6 for r in blocks)
        assert tel.registry.get("fl_vectorized_nodes_total").value == 0
        assert tel.registry.get("fl_vectorized_fallback_total").value > 0


def _sent140_model(vocab_size, seq_len, embed_dim=16, hidden=(32, 16)):
    return EmbeddingClassifier(
        vocab_size=vocab_size, embed_dim=embed_dim, seq_len=seq_len,
        hidden_dims=hidden, num_classes=2, batch_norm=True, embedding_seed=0,
    )


class TestEmbeddedFeatures:
    """Float features skip the lookup and feed the head, on both executors.

    ``EmbeddingClassifier.apply`` sends float (already-embedded) inputs
    straight to its MLP head; the stacked loss and the stacked kernel must
    follow the same rule instead of demanding token ids."""

    @pytest.fixture(scope="class")
    def embedded(self):
        rng = np.random.default_rng(5)
        nodes = [
            Dataset(rng.normal(size=(12, 6)), rng.integers(0, 2, size=12))
            for _ in range(4)
        ]
        fed = FederatedDataset(name="embedded", nodes=nodes, num_classes=2)
        model = _sent140_model(vocab_size=20, seq_len=3, embed_dim=2, hidden=(5,))
        return fed, list(range(4)), model

    @pytest.mark.parametrize(
        "runner_cls,config",
        [
            (FedML, FedMLConfig(t0=2, total_iterations=4, k=3, seed=0)),
            (FedAvg, FedAvgConfig(t0=2, total_iterations=4, seed=0)),
        ],
    )
    def test_serial_and_vectorized_agree(self, embedded, runner_cls, config):
        serial = _fit(embedded, runner_cls, config, SerialExecutor())
        vectorized = _fit(embedded, runner_cls, config, VectorizedExecutor())
        assert_same_run(serial, vectorized)


class TestSent140Model:
    """FedML on the benchmark's Sent140 model: every node takes the
    closed-form kernel, exact or first-order, unless the fast path is off
    or the config asks for more than one inner step, and then each node
    runs its own steps on the tape."""

    CONFIG = FedMLConfig(
        alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=5, seed=0
    )

    @pytest.fixture(scope="class")
    def sent140(self):
        fed = generate_sent140_like(
            Sent140LikeConfig(num_nodes=6, min_samples=16, seed=2)
        )
        # Equal node sizes, so every node stacks into one group.
        fed = FederatedDataset(
            name=fed.name,
            nodes=[node.subset(range(16)) for node in fed.nodes],
            num_classes=fed.num_classes,
            metadata=fed.metadata,
        )
        model = _sent140_model(fed.metadata["vocab_size"], fed.metadata["seq_len"])
        return fed, list(range(6)), model

    @staticmethod
    def _spy(monkeypatch):
        """Count blocks the kernel accepted and declined, and its calls."""
        seen = {"accepted": 0, "declined": 0, "calls": 0}
        real = strategies.batched_meta_gradient

        def spy(*args, **kwargs):
            kernel = real(*args, **kwargs)
            if kernel is None:
                seen["declined"] += 1
                return None
            seen["accepted"] += 1

            def counted(theta, **outputs):
                seen["calls"] += 1
                return kernel(theta, **outputs)

            return counted

        monkeypatch.setattr(strategies, "batched_meta_gradient", spy)
        return seen

    def test_serial_and_vectorized_agree(self, sent140, monkeypatch):
        seen = self._spy(monkeypatch)
        serial = _fit(sent140, FedML, self.CONFIG, SerialExecutor())
        vectorized = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        # Training, 2 blocks of 3 steps: each group's kernel is prepared
        # once per fit, one per node on the serial executor and one for the
        # whole stack on the vectorized one, and called once per step.
        # Evaluation, on both: 3 per fit (θ⁰ and 2 rounds), one group each.
        assert seen == {
            "accepted": 6 + 1 + 6,
            "declined": 0,
            "calls": 36 + 6 + 6,
        }
        assert_same_run(serial, vectorized)

    def test_double_run_bit_identical(self, sent140):
        first = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        second = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        assert (
            to_vector(first.params).tobytes()
            == to_vector(second.params).tobytes()
        )
        assert first.history.records == second.history.records

    def test_first_order_serial_and_vectorized_agree(self, sent140, monkeypatch):
        """FOMAML takes the kernel's first-order leg under both executors,
        with the exact kernel's counts."""
        config = FedMLConfig(
            alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=5, seed=0,
            first_order=True,
        )
        seen = self._spy(monkeypatch)
        serial = _fit(sent140, FedML, config, SerialExecutor())
        vectorized = _fit(sent140, FedML, config, VectorizedExecutor())
        assert seen == {
            "accepted": 6 + 1 + 6,
            "declined": 0,
            "calls": 36 + 6 + 6,
        }
        assert_same_run(serial, vectorized)

    @pytest.mark.parametrize("setup", ["fast path off", "two inner steps"])
    def test_tape_runs_equal_serial(self, sent140, monkeypatch, setup):
        config = self.CONFIG
        switch = fastpath.disabled()
        if setup == "two inner steps":
            config = FedMLConfig(
                alpha=0.05, beta=0.05, t0=3, total_iterations=6, k=5, seed=0,
                inner_steps=2,
            )
            switch = nullcontext()
        seen = self._spy(monkeypatch)
        with switch:
            serial = _fit(sent140, FedML, config, SerialExecutor())
            vectorized = _fit(sent140, FedML, config, VectorizedExecutor())
        # No node has a signature, so training builds no kernel; each fit
        # evaluates 3 times, and the kernel declines those too.
        assert seen == {"accepted": 0, "declined": 6, "calls": 0}
        assert_same_run(serial, vectorized)
