"""Engine retry/drop behaviour under *real* executor failures.

Plan-injected flakiness is resolved synthetically by the injector
(``tests/faults/test_chaos.py``); these tests throw genuine exceptions
from ``local_step`` and check the engine's snapshot-restore-rerun path.
"""

import numpy as np
import pytest

from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import (
    EngineOptions,
    ExecutorError,
    RoundEngine,
)
from repro.faults import ResiliencePolicy
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector
from repro.obs import MemorySink, Telemetry

from ..engine.test_executors import (
    ExplodingStrategy,
    NoisyConfig,
    NoisyStrategy,
)


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=6, mean_samples=20, seed=1)
    )
    return fed, list(range(6)), LogisticRegression(60, 10)


class FlakyOnceStrategy(NoisyStrategy):
    """Fails node 3's first-ever step — *after* mutating its params, so a
    successful retry proves the pre-block snapshot restore is complete."""

    def __init__(self, model, config):
        super().__init__(model, config)
        self.exploded = False

    def local_step(self, node):
        loss = super().local_step(node)
        if node.node_id == 3 and not self.exploded:
            self.exploded = True
            raise ValueError("transient failure")
        return loss


def drop_policy(max_retries=1):
    return ResiliencePolicy(drop_on_failure=True, max_retries=max_retries)


class TestRealFailures:
    def test_default_policy_raises_after_retries(self, workload):
        fed, sources, model = workload
        tel = Telemetry(sink=MemorySink())
        engine = RoundEngine(
            ExplodingStrategy(model, NoisyConfig()),
            telemetry=tel,
            options=EngineOptions(
                resilience=ResiliencePolicy(max_retries=2)
            ),
        )
        with pytest.raises(ExecutorError) as excinfo:
            engine.fit(fed, sources)
        assert excinfo.value.node_id == 3
        assert tel.registry.get("fl_retries_total").value == 2

    def test_drop_on_failure_completes_without_the_node(self, workload):
        fed, sources, model = workload
        tel = Telemetry(sink=MemorySink())
        engine = RoundEngine(
            ExplodingStrategy(model, NoisyConfig()),
            telemetry=tel,
            options=EngineOptions(resilience=drop_policy()),
        )
        result = engine.fit(fed, sources)
        assert np.isfinite(to_vector(result.params)).all()
        node3 = next(n for n in result.nodes if n.node_id == 3)
        assert node3.local_steps == 0
        # node 3 still receives every broadcast
        np.testing.assert_array_equal(
            to_vector(node3.params), to_vector(result.params)
        )
        # one retry per block before the drop (2 blocks at this config)
        assert tel.registry.get("fl_retries_total").value == 2

    def test_drop_on_failure_repeats_bit_for_bit(self, workload):
        fed, sources, model = workload

        def run():
            engine = RoundEngine(
                ExplodingStrategy(model, NoisyConfig()),
                options=EngineOptions(resilience=drop_policy()),
            )
            return engine.fit(fed, sources)

        first, second = run(), run()
        np.testing.assert_array_equal(
            to_vector(first.params), to_vector(second.params)
        )
        assert first.history.records == second.history.records

    def test_retry_restores_snapshot_bit_exactly(self, workload):
        """A transient failure absorbed by one retry leaves the run
        bit-identical to a run where the failure never happened."""
        fed, sources, model = workload
        flaky_engine = RoundEngine(
            FlakyOnceStrategy(model, NoisyConfig()),
            options=EngineOptions(
                resilience=ResiliencePolicy(max_retries=2)
            ),
        )
        flaky = flaky_engine.fit(fed, sources)
        clean = RoundEngine(NoisyStrategy(model, NoisyConfig())).fit(
            fed, sources
        )
        np.testing.assert_array_equal(
            to_vector(flaky.params), to_vector(clean.params)
        )
        assert flaky.history.records == clean.history.records
        assert [n.local_steps for n in flaky.nodes] == [
            n.local_steps for n in clean.nodes
        ]
