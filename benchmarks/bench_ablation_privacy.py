"""Ablation — differential-privacy noise vs meta-learning utility.

The paper's privacy story is architectural (raw data stays local); DP-style
upload noising is the standard *formal* strengthening.  We train FedML with
Gaussian-mechanism uploads at increasing noise multipliers and measure the
utility cost, plus verify secure aggregation is exactly lossless.
"""

import numpy as np

from repro.core import FedML, FedMLConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.federated import GaussianMechanism, Platform, SecureAggregator
from repro.metrics import format_table
from repro.nn import LogisticRegression
from repro.nn.batched import stack_params, unstack_params
from repro.nn.parameters import to_vector

from conftest import print_figure, run_once

NOISE_MULTIPLIERS = [0.0, 0.001, 0.01]


class _DPFedML(FedML):
    """FedML whose uploads pass through the Gaussian mechanism."""

    def __init__(self, *args, mechanism=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.mechanism = mechanism

    def fit(self, federated, source_ids, init_params=None, verbose=False):
        # Wrap the platform aggregator to privatize each upload.
        if self.mechanism is not None:
            original = self.platform.aggregator

            def privatized(stacked, weights):
                rows = unstack_params(stacked, len(weights))
                noisy = [self.mechanism.privatize(row) for row in rows]
                return original(stack_params(noisy), weights)

            self.platform.aggregator = privatized
        return super().fit(federated, source_ids, init_params, verbose)


def test_ablation_privacy_noise_vs_utility(benchmark, scale):
    model = LogisticRegression(60, 10)
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=scale.synthetic_nodes, seed=1)
    )
    sources, _ = fed.split_sources_targets(0.8, np.random.default_rng(0))

    def experiment():
        outcomes = {}
        clip = 50.0
        for multiplier in NOISE_MULTIPLIERS:
            mechanism = (
                None
                if multiplier == 0.0
                else GaussianMechanism(
                    clip_norm=clip, noise_multiplier=multiplier, seed=0
                )
            )
            runner = _DPFedML(
                model,
                FedMLConfig(
                    alpha=0.05, beta=0.05, t0=5,
                    total_iterations=scale.total_iterations, k=5,
                    eval_every=10**9, seed=0,
                ),
                platform=Platform(),
                mechanism=mechanism,
            )
            run = runner.fit(fed, sources)
            outcomes[multiplier] = runner.global_meta_loss(run.params, run.nodes)

        # Secure aggregation must be *exactly* lossless on equal weights.
        node_ids = [0, 1, 2, 3]
        agg = SecureAggregator(node_ids, seed=1)
        trees = {
            i: {"W": model.init(np.random.default_rng(i))["W"]}
            for i in node_ids
        }
        masked = [agg.mask(i, 1, trees[i]) for i in node_ids]
        combined = agg.aggregate(masked, [0.25] * 4)
        plain = np.mean([to_vector(trees[i]) for i in node_ids], axis=0)
        secure_error = float(
            np.max(np.abs(to_vector(combined) - plain))
        )
        return outcomes, secure_error

    outcomes, secure_error = run_once(benchmark, experiment)

    table = format_table(
        ["DP noise multiplier", "final meta-loss G(θ)"],
        [[m, outcomes[m]] for m in NOISE_MULTIPLIERS],
    ) + f"\n\nsecure-aggregation reconstruction error: {secure_error:.2e}"
    print_figure(
        f"Ablation — privacy mechanisms vs utility ({scale.label})", table
    )

    # Utility degrades monotonically with the noise multiplier.
    losses = [outcomes[m] for m in NOISE_MULTIPLIERS]
    assert losses[0] <= losses[1] <= losses[2]
    assert losses[2] > losses[0]  # the big noise is actually felt
    # Secure aggregation is numerically lossless.
    assert secure_error < 1e-9
