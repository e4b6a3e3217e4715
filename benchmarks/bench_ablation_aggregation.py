"""Ablation — aggregation rules under a corrupted upload.

The paper's aggregation is the ω-weighted mean (eq. 5).  If one edge node
uploads garbage (crash fault, poisoning), the weighted mean is dragged
arbitrarily far, while coordinate-median / trimmed-mean aggregation bound
the damage.  This bench trains FedML under an injected faulty node with
each aggregator and compares the surviving meta-loss.
"""

import numpy as np

from repro.autodiff import Tensor
from repro.core import FedML, FedMLConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import MetaStrategy
from repro.federated import Platform, coordinate_median, trimmed_mean
from repro.metrics import format_table
from repro.nn import LogisticRegression

from conftest import print_figure, run_once


class _FaultyNodeStrategy(MetaStrategy):
    """FedML's local step, after which one node uploads amplified noise."""

    # The stacked block would skip the corruption in local_step.
    supports_vectorized = False

    def local_step(self, node):
        value = super().local_step(node)
        if node.node_id == self.faulty_node_index:
            node.params = {
                name: Tensor(
                    self._fault_rng.normal(0.0, self.noise_scale, size=t.shape)
                )
                for name, t in node.params.items()
            }
        return value


class _FaultyNodeFedML(FedML):
    """FedML variant where one node uploads amplified-noise parameters."""

    strategy_type = _FaultyNodeStrategy

    def __init__(self, *args, faulty_node_index=0, noise_scale=20.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.strategy.faulty_node_index = faulty_node_index
        self.strategy.noise_scale = noise_scale
        self.strategy._fault_rng = np.random.default_rng(99)


AGGREGATORS = {
    "weighted mean (paper)": None,  # platform default
    "coordinate median": lambda stacked, weights: coordinate_median(stacked),
    "trimmed mean (20%)": lambda stacked, weights: trimmed_mean(stacked, 0.2),
}


def test_ablation_robust_aggregation_under_fault(benchmark, scale):
    model = LogisticRegression(60, 10)
    fed = generate_synthetic(
        SyntheticConfig(alpha=0.5, beta=0.5, num_nodes=scale.synthetic_nodes, seed=1)
    )
    sources, _ = fed.split_sources_targets(0.8, np.random.default_rng(0))
    faulty = sources[0]

    def experiment():
        outcomes = {}
        for name, aggregator in AGGREGATORS.items():
            runner = _FaultyNodeFedML(
                model,
                FedMLConfig(
                    alpha=0.01, beta=0.05, t0=5,
                    total_iterations=scale.total_iterations // 2, k=5,
                    eval_every=10**9, seed=0,
                ),
                platform=Platform(aggregator=aggregator),
                faulty_node_index=faulty,
            )
            run = runner.fit(fed, sources)
            healthy = [n for n in run.nodes if n.node_id != faulty]
            outcomes[name] = runner.global_meta_loss(run.params, healthy)
        return outcomes

    outcomes = run_once(benchmark, experiment)

    table = format_table(
        ["Aggregator", "meta-loss on healthy nodes"],
        [[name, loss] for name, loss in outcomes.items()],
    )
    print_figure(
        f"Ablation — aggregation under one corrupted node ({scale.label})",
        table,
    )

    # The robust rules must beat the plain weighted mean under the fault.
    assert outcomes["coordinate median"] < outcomes["weighted mean (paper)"]
    assert outcomes["trimmed mean (20%)"] < outcomes["weighted mean (paper)"]
