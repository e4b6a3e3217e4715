"""Vectorized executor equivalence, fallback, and telemetry.

The contract under test (see ``docs/ENGINE.md``): for strategies that
opt in via ``supports_vectorized``, :class:`VectorizedExecutor` runs one
stacked tape per signature group and must match :class:`SerialExecutor`
within floating-point reassociation tolerance; two vectorized runs of
the same config are bit-identical; strategies that do not opt in fall
back to the internal serial executor and stay bit-for-bit equal to a
plain serial run.
"""

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
)
from repro.data import (
    Dataset,
    FederatedDataset,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_sent140_like,
    generate_synthetic,
)
from repro.engine import RoundEngine, SerialExecutor, VectorizedExecutor
from repro.engine import strategies
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import to_vector

from .test_executors import NoisyConfig, NoisyStrategy

#: end-to-end serial-vs-vectorized tolerance — stacked tapes may
#: reassociate fp accumulations (see docs/AUTODIFF.md)
EQUIV_RTOL = 1e-6
EQUIV_ATOL = 1e-9


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
]


def _fit(workload, runner_cls, config, executor, telemetry=None):
    fed, sources, model = workload
    return runner_cls(
        model, config, telemetry=telemetry, executor=executor
    ).fit(fed, sources)


class TestVectorizedMatchesSerial:
    @pytest.mark.parametrize("runner_cls,config", RUNNERS)
    def test_equivalent_within_tolerance(self, workload, runner_cls, config):
        serial = _fit(workload, runner_cls, config, SerialExecutor())
        vectorized = _fit(workload, runner_cls, config, VectorizedExecutor())
        np.testing.assert_allclose(
            to_vector(serial.params),
            to_vector(vectorized.params),
            rtol=EQUIV_RTOL,
            atol=EQUIV_ATOL,
        )
        assert [n.local_steps for n in serial.nodes] == [
            n.local_steps for n in vectorized.nodes
        ]
        assert [n.gradient_evaluations for n in serial.nodes] == [
            n.gradient_evaluations for n in vectorized.nodes
        ]

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
        partition covers every node exactly once."""
        fed, sources, model = workload
        config = FedAvgConfig(learning_rate=0.05, t0=2, total_iterations=2, seed=0)
        strategy = FedAvg(model, config).strategy
        nodes = strategy.build_nodes(fed, sources)
        groups, fallback = VectorizedExecutor._partition(strategy, nodes)
        covered = [n.node_id for g in groups.values() for n in g]
        covered += [n.node_id for n in fallback]
        assert sorted(covered) == sorted(n.node_id for n in nodes)


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
        np.testing.assert_allclose(
            to_vector(serial.params),
            to_vector(vectorized.params),
            rtol=EQUIV_RTOL,
            atol=EQUIV_ATOL,
        )


class TestSent140Model:
    """FedML on the benchmark's Sent140 model, where the stacked step takes
    the closed-form kernel unless the fast path is off."""

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

            def counted(stacked):
                seen["calls"] += 1
                return kernel(stacked)

            return counted

        monkeypatch.setattr(strategies, "batched_meta_gradient", spy)
        return seen

    def test_serial_and_vectorized_agree(self, sent140, monkeypatch):
        seen = self._spy(monkeypatch)
        serial = _fit(sent140, FedML, self.CONFIG, SerialExecutor())
        vectorized = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        # Training: the vectorized fit's 2 blocks, 3 steps each.  Evaluation,
        # on both executors: 3 per fit (θ⁰ and 2 rounds), one group each.
        assert seen == {"accepted": 2 + 6, "declined": 0, "calls": 6 + 6}
        np.testing.assert_allclose(
            to_vector(serial.params),
            to_vector(vectorized.params),
            rtol=EQUIV_RTOL,
            atol=EQUIV_ATOL,
        )

    def test_double_run_bit_identical(self, sent140):
        first = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        second = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        assert (
            to_vector(first.params).tobytes()
            == to_vector(second.params).tobytes()
        )
        assert first.history.records == second.history.records

    def test_disabled_fastpath_stays_on_the_stacked_tape(
        self, sent140, monkeypatch
    ):
        seen = self._spy(monkeypatch)
        with fastpath.disabled():
            taped = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        # 2 training blocks and 3 evaluations, all declined.
        assert seen == {"accepted": 0, "declined": 2 + 3, "calls": 0}
        kernel = _fit(sent140, FedML, self.CONFIG, VectorizedExecutor())
        np.testing.assert_allclose(
            to_vector(taped.params),
            to_vector(kernel.params),
            rtol=EQUIV_RTOL,
            atol=EQUIV_ATOL,
        )
