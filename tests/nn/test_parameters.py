"""Tests for parameter-tree utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.federated.aggregation import weighted_mean
from repro.nn import parameters as P
from repro.nn.batched import stack_params


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "W": Tensor(rng.normal(size=(3, 2))),
        "b": Tensor(rng.normal(size=2)),
    }


class TestTreeOps:
    def test_tree_map_preserves_keys(self):
        p = make_params()
        out = P.tree_map(lambda t: t * 2.0, p)
        assert set(out) == {"W", "b"}
        np.testing.assert_allclose(out["W"].data, 2 * p["W"].data)

    def test_tree_binary_map(self):
        p, q = make_params(0), make_params(1)
        out = P.tree_binary_map(lambda a, b: a + b, p, q)
        np.testing.assert_allclose(out["b"].data, p["b"].data + q["b"].data)

    def test_tree_binary_map_key_mismatch_raises(self):
        p = make_params()
        with pytest.raises(KeyError):
            P.tree_binary_map(lambda a, b: a, p, {"W": p["W"]})

    def test_detach_produces_leaves(self):
        p = {"W": Tensor(np.ones(2), requires_grad=True)}
        p2 = {"W": p["W"] * 2.0}
        out = P.detach(p2)
        assert out["W"].is_leaf()

    def test_clone_copies_data(self):
        p = make_params()
        c = P.clone(p)
        c["W"].data[0, 0] = 99.0
        assert p["W"].data[0, 0] != 99.0

    def test_require_grad_shares_data(self):
        p = make_params()
        r = P.require_grad(p)
        assert all(t.requires_grad for t in r.values())
        assert r["W"].data is p["W"].data


class TestVectorRoundTrip:
    def test_roundtrip(self):
        p = make_params()
        vec = P.to_vector(p)
        back = P.from_vector(vec, p)
        for name in p:
            np.testing.assert_array_equal(back[name].data, p[name].data)

    def test_vector_length(self):
        p = make_params()
        assert P.to_vector(p).size == P.num_parameters(p) == 8

    def test_from_vector_wrong_size_raises(self):
        p = make_params()
        with pytest.raises(ValueError):
            P.from_vector(np.zeros(3), p)

    def test_key_order_is_sorted_not_insertion(self):
        rng = np.random.default_rng(0)
        a = {"z": Tensor(rng.normal(size=2)), "a": Tensor(rng.normal(size=2))}
        b = {"a": a["a"], "z": a["z"]}
        np.testing.assert_array_equal(P.to_vector(a), P.to_vector(b))


class TestAveraging:
    """Eq. 5 over parameter trees, now ``weighted_mean`` on their stack."""

    def test_weighted_average_exact(self):
        p, q = make_params(0), make_params(1)
        avg = weighted_mean(stack_params([p, q]), [0.25, 0.75])
        np.testing.assert_allclose(
            avg["W"].data, 0.25 * p["W"].data + 0.75 * q["W"].data
        )

    def test_weights_must_sum_to_one(self):
        p, q = make_params(0), make_params(1)
        with pytest.raises(ValueError):
            weighted_mean(stack_params([p, q]), [0.5, 0.6])

    def test_weight_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_mean(stack_params([make_params()]), [0.5, 0.5])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            weighted_mean({"W": Tensor(np.zeros((0, 3, 2)))}, [])

    def test_average_of_identical_trees_is_identity(self):
        p = make_params()
        avg = weighted_mean(stack_params([p, p, p]), [1 / 3] * 3)
        np.testing.assert_allclose(avg["W"].data, p["W"].data)

    @given(st.lists(st.integers(0, 100), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_average_stays_in_convex_hull(self, seeds):
        trees = [make_params(s) for s in seeds]
        weights = [1.0 / len(trees)] * len(trees)
        avg = weighted_mean(stack_params(trees), weights)
        stacked = np.stack([t["W"].data for t in trees])
        assert np.all(avg["W"].data <= stacked.max(axis=0) + 1e-12)
        assert np.all(avg["W"].data >= stacked.min(axis=0) - 1e-12)


class TestStackParams:
    """``stack_params`` builds its arrays with ``np.array``; the stack is
    ``np.stack``'s and it still rejects trees that do not line up."""

    def test_stack_is_np_stack_and_owns_its_arrays(self):
        trees = [make_params(s) for s in range(3)]
        stacked = stack_params(trees)
        for name in ("W", "b"):
            want = np.stack([t[name].data for t in trees])
            assert stacked[name].data.tobytes() == want.tobytes()
            assert stacked[name].data.shape == want.shape
            assert stacked[name].data.flags.writeable
            assert not np.shares_memory(stacked[name].data, trees[0][name].data)

    @pytest.mark.parametrize(
        "shape", [(2, 3), (3,), (3, 2, 1), (4, 2), ()]
    )
    def test_per_name_shape_mismatch_raises(self, shape):
        other = make_params(1)
        other["W"] = Tensor(np.zeros(shape))
        with pytest.raises(ValueError):
            stack_params([make_params(0), other])

    def test_name_mismatch_and_no_trees_raise(self):
        other = make_params(1)
        other["c"] = other.pop("b")
        with pytest.raises(ValueError, match="disagree on names"):
            stack_params([make_params(0), other])
        with pytest.raises(ValueError, match="at least one"):
            stack_params([])


class TestArithmetic:
    def test_add_scaled(self):
        p = make_params(0)
        u = make_params(1)
        out = P.add_scaled(p, u, -0.5)
        np.testing.assert_allclose(
            out["b"].data, p["b"].data - 0.5 * u["b"].data
        )

    def test_l2_distance_zero_for_same_tree(self):
        p = make_params()
        assert P.l2_distance(p, p) == 0.0

    def test_l2_distance_matches_vector_norm(self):
        p, q = make_params(0), make_params(1)
        expected = np.linalg.norm(P.to_vector(p) - P.to_vector(q))
        assert P.l2_distance(p, q) == pytest.approx(expected)

    def test_l2_norm(self):
        p = make_params()
        assert P.l2_norm(p) == pytest.approx(np.linalg.norm(P.to_vector(p)))

    def test_zeros_like(self):
        z = P.zeros_like_params(make_params())
        assert P.l2_norm(z) == 0.0

    def test_num_bytes_is_8_per_parameter(self):
        p = make_params()
        assert P.num_bytes(p) == 8 * P.num_parameters(p)
