"""The stacked aggregation rules against the sequential loop they replace.

``weighted_mean`` reduces a stacked tree over its node axis.  It must give
the same bits as the loop every aggregation site ran before the rules took
a stacked tree, ``acc = acc + ω_i·θ_i`` from zero in participant order —
signed zeros included — so θ does not move on any workload.  The loop is
kept here as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.federated.aggregation import (
    coordinate_median,
    normalized_weights,
    trimmed_mean,
    weighted_mean,
)
from repro.federated.fleet import BufferedAggregator, BufferEntry
from repro.nn.batched import stack_params


def reference_weighted_mean(trees, weights):
    """The sequential loop: zeros, then ``acc = acc + w·θ_i`` per tree."""
    out = {}
    for name in sorted(trees[0]):
        acc = np.zeros_like(np.asarray(trees[0][name].data, dtype=np.float64))
        for tree, w in zip(trees, weights):
            acc = acc + w * tree[name].data
        out[name] = Tensor(acc)
    return out


def assert_same_bits(got, expected):
    assert sorted(got) == sorted(expected)
    for name in expected:
        a, b = got[name].data, expected[name].data
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


SHAPES = {"scalar": (), "vector": (3,), "one": (1,), "matrix": (2, 4),
          "cube": (2, 1, 3), "empty": (0, 2)}

#: a value: mostly normal draws over many magnitudes, and signed zeros
values = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def stacked_problem(draw):
    num = draw(st.integers(1, 8))
    names = draw(
        st.lists(st.sampled_from(sorted(SHAPES)), min_size=1, max_size=4,
                 unique=True)
    )
    trees = []
    for _ in range(num):
        tree = {}
        for name in names:
            shape = SHAPES[name]
            size = int(np.prod(shape))
            flat = draw(st.lists(values, min_size=size, max_size=size))
            tree[name] = Tensor(np.array(flat, dtype=np.float64).reshape(shape))
        trees.append(tree)
    raw = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
            min_size=num, max_size=num,
        ).filter(lambda ws: sum(ws) > 0)
    )
    return trees, normalized_weights(raw)


@given(stacked_problem())
@settings(max_examples=300, deadline=None)
def test_weighted_mean_equals_the_sequential_loop(problem):
    trees, weights = problem
    assert_same_bits(
        weighted_mean(stack_params(trees), weights),
        reference_weighted_mean(trees, weights.tolist()),
    )


def test_all_negative_zeros_sum_to_positive_zero():
    """The loop starts from +0, so an all-(−0) sum is +0, not −0."""
    trees = [{"w": Tensor(np.array([-0.0, -0.0]))} for _ in range(8)]
    weights = np.full(8, 1 / 8)
    out = weighted_mean(stack_params(trees), weights)
    assert_same_bits(out, reference_weighted_mean(trees, weights.tolist()))
    assert not np.signbit(out["w"].data).any()


def test_zero_dimensional_parameters_sum_in_order_past_eight_nodes():
    """A 0-d parameter puts the node axis innermost, where a NumPy
    reduction would sum pairwise; the loop order must still hold."""
    rng = np.random.default_rng(3)
    for num in (8, 9, 16, 33):
        trees = [{"s": Tensor(rng.normal())} for _ in range(num)]
        weights = normalized_weights(rng.random(num))
        assert_same_bits(
            weighted_mean(stack_params(trees), weights),
            reference_weighted_mean(trees, weights.tolist()),
        )


@pytest.mark.parametrize("rule", [weighted_mean, coordinate_median,
                                  trimmed_mean])
def test_empty_stack_raises(rule):
    empty = {"w": Tensor(np.zeros((0, 3)))}
    args = (empty, []) if rule is weighted_mean else (empty,)
    with pytest.raises(ValueError, match="zero parameter trees"):
        rule(*args)


class TestNormalizedWeights:
    @pytest.mark.parametrize(
        "raw", [[0.0, 0.0], [-1.0, 2.0], [float("nan"), 1.0],
                [float("inf"), 1.0], []]
    )
    def test_rejects(self, raw):
        with pytest.raises(ValueError, match="positive finite total"):
            normalized_weights(raw)

    def test_message_prints_plain_floats(self):
        with pytest.raises(ValueError) as info:
            normalized_weights([0.0, 0.0])
        assert "np.float64" not in str(info.value)
        assert "sum to 0.0" in str(info.value)

    def test_normalizes_like_numpy(self):
        raw = np.array([3.0, 1.0, 0.0])
        assert normalized_weights(raw).tobytes() == (raw / raw.sum()).tobytes()


@given(stacked_problem())
@settings(max_examples=60, deadline=None)
def test_fleet_zero_staleness_flush_passes_rows_through(problem):
    """A flush of fresh entries is the stacked weighted mean of the
    uploads themselves — bit for bit the loop over them."""
    trees, _ = problem
    agg = BufferedAggregator(len(trees))
    raw = [float(i + 1) for i in range(len(trees))]
    # Delivered in reverse: the flush orders entries by node id.
    for node_id in reversed(range(len(trees))):
        agg.add(
            BufferEntry(
                node_id=node_id, weight=raw[node_id], base_version=4,
                params=trees[node_id],
            )
        )
    current = {name: Tensor(np.full(t.shape, 7.0)) for name, t in trees[0].items()}
    merged, stats = agg.flush(current, 4, {})
    assert [s["staleness"] for s in stats] == [0] * len(trees)
    weights = (np.array(raw) / np.sum(raw)).tolist()
    assert_same_bits(merged, reference_weighted_mean(trees, weights))
