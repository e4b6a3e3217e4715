"""Each stacked group's meta kernel is prepared once per fit, never stale.

``MetaStrategy`` keeps the kernel a group's first block builds (its
stacked sets, embedded features, one-hot labels, ``[X_out; X_in]`` and
Gram block) for the group's later blocks.  A stale entry would train on
old sets, so each rule that drops one has its own test: a node that gains
Robust FedML's ``D^adv`` never runs its earlier kernel again, a fit
starts from no entries and leaves none behind, a node is in at most one
entry however crashes regroup the nodes, and an evicted fleet node's
entry goes with it (``tests/federated/test_fleet_memory.py``).  Kill-and-resume, which must
rebuild every entry, is ``tests/faults/test_resume.py``'s.
"""

import numpy as np
import pytest

from repro.core import FedML, FedMLConfig, RobustFedML, RobustFedMLConfig
from repro.data import SyntheticConfig, generate_synthetic
from repro.engine import (
    AdversarialStrategy,
    EngineOptions,
    MetaStrategy,
    SerialExecutor,
    VectorizedExecutor,
    strategies,
)
from repro.faults import (
    CrashSchedule,
    FaultPlan,
    KillSchedule,
    ResiliencePolicy,
    RunInterrupted,
)
from repro.nn import LogisticRegression
from repro.nn.parameters import to_vector

from .test_vectorized_executor import assert_same_run

EXECUTORS = [SerialExecutor, VectorizedExecutor]


def synthetic(seed):
    """Six Synthetic nodes; on the vectorized executor nodes 1 and 2
    stack, the rest run alone."""
    fed = generate_synthetic(
        SyntheticConfig(
            alpha=0.5, beta=0.5, num_nodes=6, mean_samples=20, seed=seed
        )
    )
    return fed, list(range(6)), LogisticRegression(60, 10)


def entry_node_ids(strategy):
    """Every node id held by the strategy's entries, one per membership."""
    return [node_id for key in strategy._kernels._entries for node_id in key]


class Recording(MetaStrategy):
    """FedML noting each block's group and the entries held after it."""

    def begin_fit(self, params, nodes):
        super().begin_fit(params, nodes)
        self.blocks = []

    def local_block_vectorized(self, nodes, steps, rngs):
        super().local_block_vectorized(nodes, steps, rngs)
        self.blocks.append(
            (tuple(n.node_id for n in nodes), entry_node_ids(self))
        )


class RecordingFedML(FedML):
    strategy_type = Recording


class Watched(AdversarialStrategy):
    """Robust FedML exposing the group each kernel call serves."""

    group = ()

    def local_block_vectorized(self, nodes, steps, rngs):
        self.group = nodes
        super().local_block_vectorized(nodes, steps, rngs)


class WatchedRobustFedML(RobustFedML):
    strategy_type = Watched


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_node_that_gains_adversarial_data_never_runs_its_old_kernel(
    monkeypatch, executor
):
    """Each training call's kernel was built on as many outer sets as its
    nodes hold now: the test set, plus ``D^adv`` once it exists."""
    real = strategies.batched_meta_gradient
    calls = []
    runner = WatchedRobustFedML(
        LogisticRegression(60, 10),
        RobustFedMLConfig(
            alpha=0.05, beta=0.05, t0=3, total_iterations=12, k=3, seed=0,
            ta=1, n0=1, r_max=2,
        ),
        executor=executor(),
    )
    strategy = runner.strategy

    def spy(model, train, tests, *args, **kwargs):
        kernel = real(model, train, tests, *args, **kwargs)
        built_on = len(tests)

        def watched(theta, **outputs):
            if outputs.get("gradient"):
                held = {
                    1 + len(strategy._extra_test_sets(node))
                    for node in strategy.group
                }
                calls.append((built_on, held))
            return kernel(theta, **outputs)

        return watched

    monkeypatch.setattr(strategies, "batched_meta_gradient", spy)
    fed, sources, _ = synthetic(1)
    result = runner.fit(fed, sources)
    assert all(held == {built_on} for built_on, held in calls)
    # Blocks ran both before and after D^adv (grown twice).
    assert {built_on for built_on, _ in calls} == {1, 2}
    assert all(len(n.adversarial) == 2 * len(n.split.test) for n in result.nodes)
    # Every node carries D^adv at the end, so no group keeps an entry.
    assert len(strategy._kernels) == 0


@pytest.mark.parametrize("executor", EXECUTORS)
def test_a_second_fit_equals_a_fresh_runners(executor):
    """Fitting again with the same node ids on other data starts from no
    entries, and the platform from no rounds and no bytes: the second fit
    trains and reports as the fresh runner does, bit for bit."""
    config = FedMLConfig(
        alpha=0.05, beta=0.05, t0=3, total_iterations=9, k=3, seed=0
    )
    first, sources, model = synthetic(1)
    second, _, _ = synthetic(2)
    runner = RecordingFedML(model, config, executor=executor())
    runner.fit(first, sources)
    again = runner.fit(second, sources)
    fresh = RecordingFedML(model, config, executor=executor())
    want = fresh.fit(second, sources)
    assert np.array_equal(to_vector(again.params), to_vector(want.params))
    assert again.history.records == want.history.records
    assert again.platform.rounds_completed == want.platform.rounds_completed
    assert [n.local_steps for n in again.nodes] == [
        n.local_steps for n in want.nodes
    ]
    assert runner.strategy.blocks == fresh.strategy.blocks


@pytest.mark.parametrize("killed", [False, True])
def test_no_entry_outlives_the_fit(killed):
    """Every block holds entries; ``end_fit`` drops them all once the fit
    returns, or once a kill interrupts it."""
    fed, sources, model = synthetic(1)
    plan = FaultPlan([KillSchedule(block=1)] if killed else [])
    runner = RecordingFedML(
        model,
        FedMLConfig(alpha=0.05, beta=0.05, t0=3, total_iterations=9, k=3, seed=0),
        executor=VectorizedExecutor(),
        engine_options=EngineOptions(faults=plan),
    )
    if killed:
        with pytest.raises(RunInterrupted):
            runner.fit(fed, sources)
    else:
        runner.fit(fed, sources)
    blocks = runner.strategy.blocks
    # Five groups a block, for two blocks (killed after block 1) or three;
    # the last group's block ends with every node in an entry.
    assert len(blocks) == 5 * (2 if killed else 3)
    assert sorted(blocks[-1][1]) == sources
    assert len(runner.strategy._kernels) == 0


def test_crashes_regroup_nodes_without_growing_the_entries():
    """Crashes change which nodes stack from block to block; storing a
    group's entry drops every entry sharing a node with it, so no node is
    in two entries and the run equals the serial one."""

    def fit(executor):
        fed, sources, model = synthetic(1)
        runner = RecordingFedML(
            model,
            FedMLConfig(
                alpha=0.05, beta=0.05, t0=3, total_iterations=30, k=3, seed=0
            ),
            executor=executor,
            engine_options=EngineOptions(
                faults=FaultPlan([CrashSchedule(rate=0.3)], seed=3),
                resilience=ResiliencePolicy(min_participants=1),
            ),
        )
        return runner.fit(fed, sources), runner.strategy, len(sources)

    vectorized, strategy, node_count = fit(VectorizedExecutor())
    groups = {group for group, _ in strategy.blocks}
    # Nodes 1 and 2 stacked in some blocks and ran alone in others.
    assert (1, 2) in groups and {(1,), (2,)} & groups
    for _, held in strategy.blocks:
        assert len(held) == len(set(held)) <= node_count
    assert_same_run(vectorized, fit(SerialExecutor())[0])


def test_an_evicted_node_takes_its_entry_with_it():
    fed, sources, model = synthetic(1)
    strategy = MetaStrategy(
        model, FedMLConfig(alpha=0.05, beta=0.05, t0=3, k=3, seed=0)
    )
    nodes = strategy.build_nodes(fed, sources)
    theta = model.init(np.random.default_rng(0))
    for node in nodes:
        node.params = theta
    strategy.begin_fit(theta, nodes)
    VectorizedExecutor().run_block(
        strategy, nodes, 3, block_index=0, base_seed=0
    )
    assert sorted(entry_node_ids(strategy)) == sources
    strategy.release_node(nodes[2])
    # Node 2's group was (1, 2): the whole entry goes.
    assert sorted(entry_node_ids(strategy)) == [0, 3, 4, 5]


def test_a_node_given_a_new_split_is_not_served_its_old_kernel():
    """An entry serves only the very splits it was built from: a node
    whose split is replaced (same id, other data) trains on the new one,
    as a strategy that never saw the old split does."""
    fed, sources, model = synthetic(1)
    other, _, _ = synthetic(2)
    config = FedMLConfig(alpha=0.05, beta=0.05, t0=3, k=3, seed=0)
    theta = model.init(np.random.default_rng(0))

    def node_after_block(strategy, split):
        (node,) = strategy.build_nodes(fed, [0])
        node.split, node.params = split, theta
        SerialExecutor().run_block(
            strategy, [node], 3, block_index=1, base_seed=0
        )
        return to_vector(node.params)

    old_split = MetaStrategy(model, config).build_nodes(fed, [0])[0].split
    new_split = MetaStrategy(model, config).build_nodes(other, [0])[0].split
    strategy = MetaStrategy(model, config)
    node_after_block(strategy, old_split)
    got = node_after_block(strategy, new_split)
    want = node_after_block(MetaStrategy(model, config), new_split)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, node_after_block(strategy, old_split))
