"""Tests for asynchronous staleness-aware FedML."""

import numpy as np
import pytest

from repro.core import AsyncFedML, AsyncFedMLConfig, async_fedml, meta_gradient
from repro.data import SyntheticConfig, generate_synthetic
from repro.federated import DeviceProfile, LinkModel, sample_fleet
from repro.nn import LogisticRegression
from repro.nn.parameters import add_scaled, detach, to_vector

MODEL = LogisticRegression(60, 10)
LINK = LinkModel()


@pytest.fixture(scope="module")
def workload():
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=8, mean_samples=20, seed=1)
    )
    return fed, list(range(8))


def uniform_fleet(n, speed=0.05):
    return [DeviceProfile(i, speed, LINK) for i in range(n)]


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mixing": 0.0},
            {"mixing": 1.5},
            {"staleness_power": -1.0},
            {"alpha": 0.0},
            {"total_uploads": 0},
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            AsyncFedMLConfig(**kwargs)


class TestAsyncFedML:
    def _run(self, workload, fleet=None, **overrides):
        fed, sources = workload
        kwargs = dict(
            alpha=0.05, beta=0.05, t0=3, total_uploads=40, k=5,
            eval_every=10, seed=0,
        )
        kwargs.update(overrides)
        if fleet is None:
            fleet = uniform_fleet(len(sources))
        runner = AsyncFedML(MODEL, AsyncFedMLConfig(**kwargs))
        return runner.fit(fed, sources, fleet)

    def test_loss_decreases(self, workload):
        result = self._run(workload)
        losses = result.global_meta_losses
        assert losses[-1] < losses[0]

    def test_upload_count(self, workload):
        result = self._run(workload, total_uploads=25)
        assert len(result.upload_times) == 25

    def test_simulated_time_is_monotone(self, workload):
        result = self._run(workload)
        times = result.upload_times
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_uniform_fleet_has_low_staleness(self, workload):
        """Identical devices interleave round-robin: staleness is bounded
        by the fleet size."""
        fed, sources = workload
        result = self._run(workload, fleet=uniform_fleet(len(sources)))
        assert max(result.staleness) <= len(sources)

    def test_heterogeneous_fleet_creates_staleness(self, workload):
        fed, sources = workload
        # Moderate skew so slow devices still upload within the budget;
        # their contributions then arrive many global versions late.
        fast_slow = [
            DeviceProfile(i, 0.01 if i % 2 == 0 else 0.2, LINK)
            for i in range(len(sources))
        ]
        result = self._run(workload, fleet=fast_slow, total_uploads=120)
        assert max(result.staleness) > len(sources)

    def test_fast_devices_contribute_more(self, workload):
        fed, sources = workload
        fast_slow = [
            DeviceProfile(i, 0.01 if i == 0 else 1.0, LINK)
            for i in range(len(sources))
        ]
        result = self._run(workload, fleet=fast_slow, total_uploads=60)
        steps = {n.node_id: n.local_steps for n in result.nodes}
        slowest = [v for k, v in steps.items() if k != sources[0]]
        assert steps[sources[0]] > max(slowest)

    def test_fleet_size_mismatch_raises(self, workload):
        fed, sources = workload
        runner = AsyncFedML(MODEL, AsyncFedMLConfig())
        with pytest.raises(ValueError):
            runner.fit(fed, sources, uniform_fleet(3))

    def test_deterministic(self, workload):
        r1 = self._run(workload)
        r2 = self._run(workload)
        np.testing.assert_array_equal(to_vector(r1.params), to_vector(r2.params))

    def test_staleness_discount_tempers_stale_updates(self, workload):
        """With discounting off, very stale updates get full mixing weight;
        the discounted run must end at least as well on a skewed fleet."""
        fed, sources = workload
        fast_slow = [
            DeviceProfile(i, 0.01 if i % 2 == 0 else 2.0, LINK)
            for i in range(len(sources))
        ]
        discounted = self._run(
            workload, fleet=fast_slow, staleness_power=1.0, total_uploads=60
        )
        undamped = self._run(
            workload, fleet=fast_slow, staleness_power=0.0, total_uploads=60
        )
        assert (
            discounted.global_meta_losses[-1]
            <= undamped.global_meta_losses[-1] * 1.25
        )


def per_step_contribution(self, node, start):
    """The local phase as it ran before the kernel was held for the phase:
    one ``meta_gradient`` (gradient and loss) per step, then
    ``add_scaled``.  The reference the held kernel must match bit for bit."""
    cfg = self.config
    params = detach(start)
    for _ in range(cfg.t0):
        gradient, _ = meta_gradient(
            self.model, params, node.split, cfg.alpha,
            inner_steps=cfg.inner_steps, loss_fn=self.loss_fn,
            first_order=cfg.first_order,
        )
        params = add_scaled(params, gradient, -cfg.beta)
        node.record_local_step()
    return params


class TestHeldKernel:
    """A local phase builds its one-node meta kernel once and asks it for
    the gradient alone, exact or first-order; the run is the per-step
    loop's."""

    @pytest.mark.parametrize("first_order", [False, True])
    def test_matches_the_per_step_loop(self, workload, monkeypatch, first_order):
        fed, sources = workload
        config = AsyncFedMLConfig(
            alpha=0.05, beta=0.05, t0=3, total_uploads=24, k=5,
            eval_every=6, seed=0, first_order=first_order,
        )
        fleet = [
            DeviceProfile(i, 0.01 * (1 + i % 3), LINK)
            for i in range(len(sources))
        ]
        built = []
        real = async_fedml.node_meta_kernel

        def counted(*args, **kwargs):
            kernel = real(*args, **kwargs)
            built.append(kernel is not None)
            return kernel

        monkeypatch.setattr(async_fedml, "node_meta_kernel", counted)
        held = AsyncFedML(MODEL, config).fit(fed, sources, fleet)
        # One build per contribution; the kernel serves every one.
        assert built == [True] * 24
        monkeypatch.setattr(
            AsyncFedML, "_local_contribution", per_step_contribution
        )
        reference = AsyncFedML(MODEL, config).fit(fed, sources, fleet)
        assert np.array_equal(to_vector(held.params), to_vector(reference.params))
        assert held.history.records == reference.history.records
        assert [n.local_steps for n in held.nodes] == [
            n.local_steps for n in reference.nodes
        ]
