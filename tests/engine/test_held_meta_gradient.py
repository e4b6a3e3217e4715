"""The meta-gradient function a ``MetaStrategy`` holds across a node's steps.

``MetaStrategy.local_step`` builds the node's exact meta-gradient kernel on
its first step and reuses it, with its hoisted inputs, for the rest of the
block.  The slot must never serve a stale kernel: every cached step is
checked here against an uncached ``meta_gradient`` call, bit for bit, after
each event that changes what the kernel was built from — ``D^adv``
growing, the fast path being switched off, another node stepping in
between — and after the slot is dropped on eviction or at a block end.
"""

import numpy as np
import pytest

from repro.autodiff import fastpath
from repro.core import FedMLConfig, RobustFedMLConfig, meta_gradient
from repro.data.dataset import Dataset, NodeSplit
from repro.engine import AdversarialStrategy, MetaStrategy, strategies
from repro.federated.node import EdgeNode
from repro.nn import EmbeddingClassifier, LogisticRegression
from repro.nn.parameters import add_scaled

CONFIG = FedMLConfig(alpha=0.1, beta=0.05, t0=3, total_iterations=6, k=4)
ROBUST = RobustFedMLConfig(
    alpha=0.1, beta=0.05, t0=3, total_iterations=6, k=4, ta=2, n0=1, r_max=3
)


@pytest.fixture(autouse=True)
def _fresh_fastpath():
    fastpath.enable()
    yield
    fastpath.enable()


def make_node(model, node_id, seed, token_ids=False):
    rng = np.random.default_rng(seed)

    def dataset(n):
        if token_ids:
            x = rng.integers(0, model.vocab_size, size=(n, model.seq_len))
        else:
            x = rng.normal(size=(n, model.input_dim))
        return Dataset(x, rng.integers(0, model.output_dim, size=n))

    node = EdgeNode(
        node_id=node_id,
        split=NodeSplit(train=dataset(4), test=dataset(7)),
        weight=1.0,
    )
    node.params = model.init(rng)
    return node


def assert_step_is_uncached_meta_gradient(strategy, node):
    """One ``local_step`` equals a freshly built ``meta_gradient``, bitwise."""
    extras = [] if node.adversarial is None else [node.adversarial]
    cfg = strategy.config
    before = node.params
    gradient, value = meta_gradient(
        strategy.model, before, node.split, cfg.alpha,
        extra_test_sets=extras,
    )
    expected = add_scaled(before, gradient, -cfg.beta)
    assert strategy.local_step(node) == value
    assert list(node.params) == list(expected)
    for name, tensor in expected.items():
        assert node.params[name].data.tobytes() == tensor.data.tobytes()


@pytest.fixture(params=["logreg", "sent140"])
def meta(request):
    if request.param == "logreg":
        model = LogisticRegression(6, 3)
        nodes = [make_node(model, i, seed=i) for i in range(2)]
    else:
        model = EmbeddingClassifier(30, 4, 5, (8, 6), 2, batch_norm=True)
        nodes = [make_node(model, i, seed=i, token_ids=True) for i in range(2)]
    return MetaStrategy(model, CONFIG), nodes


def test_block_of_steps_reuses_one_kernel(meta, monkeypatch):
    strategy, (node, _) = meta
    built = []
    real = strategies.meta_gradient_fn

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(strategies, "meta_gradient_fn", spy)
    for _ in range(CONFIG.t0):
        assert_step_is_uncached_meta_gradient(strategy, node)
    assert len(built) == 1


def test_node_switch_rebuilds(meta):
    strategy, (first, second) = meta
    for node in (first, second, first, second):
        assert_step_is_uncached_meta_gradient(strategy, node)


def test_disabling_the_fastpath_drops_the_kernel(meta):
    """Entered while the strategy holds a kernel: the step must be the
    tape's, byte for byte, and the kernel returns once it is re-enabled."""
    strategy, (node, _) = meta
    assert_step_is_uncached_meta_gradient(strategy, node)
    with fastpath.disabled():
        before = fastpath.stats().as_dict()
        assert_step_is_uncached_meta_gradient(strategy, node)
        assert fastpath.stats().delta_since(before)["fused_dispatches"] == 0
    before = fastpath.stats().as_dict()
    assert_step_is_uncached_meta_gradient(strategy, node)
    delta = fastpath.stats().delta_since(before)
    # One dispatch for the held kernel's step, one for the reference call.
    assert delta["fused_dispatches"] == 2
    assert delta["backwards"] == 0


def test_release_drops_the_slot(meta):
    strategy, (node, _) = meta
    assert_step_is_uncached_meta_gradient(strategy, node)
    strategy.release_node(node)
    assert "_held" not in strategy.__dict__
    assert_step_is_uncached_meta_gradient(strategy, node)


def test_growing_adversarial_set_rebuilds():
    """``generate_adversarial`` grows ``D^adv`` mid-block; the next step
    must include the new rows in its outer loss."""
    model = LogisticRegression(6, 3)
    strategy = AdversarialStrategy(model, ROBUST)
    node = make_node(model, 0, seed=4)
    strategy.begin_fit(node.params, [node])
    rng = np.random.default_rng(0)
    assert_step_is_uncached_meta_gradient(strategy, node)
    for _ in range(2):
        strategy.generate_adversarial(node, rng)
        assert_step_is_uncached_meta_gradient(strategy, node)
        assert_step_is_uncached_meta_gradient(strategy, node)
    assert len(node.adversarial) == 2 * len(node.split.test)


def test_block_end_drops_the_slot():
    """Robust FedML's block end, where ``D^adv`` grows, drops the slot
    even in blocks that generate nothing."""
    model = LogisticRegression(6, 3)
    strategy = AdversarialStrategy(model, ROBUST)
    node = make_node(model, 0, seed=4)
    strategy.begin_fit(node.params, [node])
    assert_step_is_uncached_meta_gradient(strategy, node)
    strategy.on_block_end(1, [node], np.random.default_rng(0), None)
    assert "_held" not in strategy.__dict__
    assert node.adversarial is None
    assert_step_is_uncached_meta_gradient(strategy, node)
