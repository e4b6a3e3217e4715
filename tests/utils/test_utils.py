"""Tests for RNG streams, serialization, and run logging."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autodiff import Tensor
from repro.utils import (
    RngFactory,
    RunLogger,
    deserialize_params,
    payload_bytes,
    serialize_params,
    spawn,
)
from repro.utils.rng import _name_to_int

#: seeds of one, two and three or more ``SeedSequence`` words
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**100),
)
NAMES = st.lists(
    st.one_of(
        st.text(max_size=12),
        st.integers(-(2**40), 2**40),
        st.integers(2**32, 2**80),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
    ),
    max_size=5,
)
IDS = st.lists(
    st.one_of(
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**80),
        st.integers(-(2**40), -1),
    ),
    max_size=6,
)


class TestRngFactory:
    def test_same_names_same_stream(self):
        factory = RngFactory(7)
        a = factory.stream("data", 3).normal(size=5)
        b = factory.stream("data", 3).normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        factory = RngFactory(7)
        a = factory.stream("data", 3).normal(size=5)
        b = factory.stream("data", 4).normal(size=5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").normal(size=5)
        b = RngFactory(2).stream("x").normal(size=5)
        assert not np.array_equal(a, b)

    def test_string_names_are_stable(self):
        a = spawn(0, "alpha", "beta").integers(0, 1000, size=3)
        b = spawn(0, "alpha", "beta").integers(0, 1000, size=3)
        np.testing.assert_array_equal(a, b)

    def test_repr(self):
        assert "seed=9" in repr(RngFactory(9))

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, names=NAMES)
    @example(seed=0, names=[])
    @example(seed=0, names=[0, "", np.int64(0)])
    @example(
        seed=2**32, names=["fleet-shard", -1, 2**32, np.int64(-5), 2**64 + 3]
    )
    @example(seed=2**64 + 7, names=["fleet-fault", 0, "crash", 3, 12345])
    def test_stream_is_the_list_seeded_stream(self, seed, names):
        """``stream`` is NumPy's stream for the list ``[seed, *names]``."""
        words = [_name_to_int(name) for name in names]
        expected = np.random.default_rng(
            np.random.SeedSequence([seed, *words])
        )
        assert spawn(seed, *names).bit_generator.state == (
            expected.bit_generator.state
        )

    @given(seed=st.integers(max_value=-1), names=NAMES)
    def test_negative_seed_raises(self, seed, names):
        with pytest.raises(ValueError):
            spawn(seed, *names)

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, names=NAMES, ids=IDS)
    @example(seed=0, names=["fleet-speed"], ids=[])
    @example(seed=0, names=[], ids=[0, 2**32, -1])
    @example(seed=2**64 + 7, names=["fleet-speed"], ids=[3, 2**40 + 3])
    @example(
        seed=2**100, names=["fleet-fault", 0, "crash", 3], ids=[12345, 0]
    )
    def test_streams_are_the_per_id_streams(self, seed, names, ids):
        """``streams`` gives ``stream(*names, i)`` for each id: keys of
        one word to more than the four of ``SeedSequence``'s pool."""
        factory = RngFactory(seed)
        got = list(factory.streams(*names, ids=ids))
        want = [factory.stream(*names, i) for i in ids]
        assert len(got) == len(want)
        for rng, expected in zip(got, want):
            assert rng.bit_generator.state == expected.bit_generator.state
            np.testing.assert_array_equal(
                rng.normal(size=3), expected.normal(size=3)
            )
            assert rng.integers(2**63) == expected.integers(2**63)


class TestSerialization:
    def _params(self, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "W": Tensor(rng.normal(size=(4, 3))),
            "b": Tensor(rng.normal(size=3)),
            "scalar": Tensor(rng.normal()),
        }

    def test_roundtrip(self):
        params = self._params()
        back = deserialize_params(serialize_params(params))
        assert set(back) == set(params)
        for name in params:
            np.testing.assert_array_equal(back[name].data, params[name].data)

    def test_roundtrip_preserves_shapes(self):
        back = deserialize_params(serialize_params(self._params()))
        assert back["W"].shape == (4, 3)
        assert back["scalar"].shape == ()

    def test_payload_bytes_dominated_by_data(self):
        params = self._params()
        data_bytes = sum(t.data.nbytes for t in params.values())
        total = payload_bytes(params)
        assert total > data_bytes
        assert total < data_bytes + 200  # header overhead is small

    def test_bad_magic_raises(self):
        with pytest.raises(ValueError):
            deserialize_params(b"XXXX" + b"\x00" * 16)

    def test_deserialized_are_plain_leaves(self):
        back = deserialize_params(serialize_params(self._params()))
        assert all(t.is_leaf() and not t.requires_grad for t in back.values())

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        params = self._params(seed)
        back = deserialize_params(serialize_params(params))
        for name in params:
            np.testing.assert_array_equal(back[name].data, params[name].data)


class TestRunLogger:
    def test_series_extraction(self):
        log = RunLogger()
        log.log(0, loss=1.0)
        log.log(1, loss=0.5, acc=0.9)
        assert log.series("loss") == [1.0, 0.5]
        assert log.series("acc") == [0.9]

    def test_steps_filtered_by_key(self):
        log = RunLogger()
        log.log(0, loss=1.0)
        log.log(5, acc=0.9)
        assert log.steps() == [0, 5]
        assert log.steps("acc") == [5]

    def test_last(self):
        log = RunLogger()
        log.log(0, loss=1.0)
        log.log(1, loss=0.25)
        assert log.last("loss") == 0.25

    def test_last_missing_key_raises(self):
        with pytest.raises(KeyError):
            RunLogger().last("loss")

    def test_table_renders_rows(self):
        log = RunLogger()
        for i in range(5):
            log.log(i, loss=1.0 / (i + 1))
        table = log.table(["loss"])
        assert "loss" in table
        assert len(table.splitlines()) >= 3

    def test_table_subsamples_long_runs(self):
        log = RunLogger()
        for i in range(200):
            log.log(i, loss=float(i))
        table = log.table(["loss"], max_rows=10)
        assert len(table.splitlines()) <= 25

    def test_table_always_keeps_final_row_exactly_once(self):
        # 22 rows, max_rows=10 -> stride 2 samples indices 0..20; the final
        # row (index 21) must be appended even when it is value-equal to a
        # sampled row (the old dict-equality check dropped it here).
        log = RunLogger()
        for i in range(21):
            log.log(i, loss=float(i))
        log.log(0, loss=0.0)  # final row repeats row 0 by value
        table = log.table(["loss"], max_rows=10)
        rows = table.splitlines()[1:]
        assert rows.count(rows[-1]) == 2  # duplicate *values*, both kept
        assert len(rows) == 12  # 11 sampled + the final row

    def test_table_no_duplicate_when_stride_hits_final_row(self):
        log = RunLogger()
        for i in range(21):  # stride 2 samples 0,2,...,20 == final index
            log.log(i, loss=float(i))
        table = log.table(["loss"], max_rows=10)
        rows = table.splitlines()[1:]
        assert len(rows) == len(set(rows)) == 11

    def test_registry_backed_logger_shares_series(self):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        log = RunLogger(name="fedml", registry=registry)
        log.log(0, loss=1.0)
        assert registry.get("loss", run="fedml").values == [1.0]
        assert log.registry is registry

    def test_records_legacy_view(self):
        log = RunLogger()
        log.log(0, loss=1.0)
        log.log(1, loss=0.5, acc=0.9)
        assert log.records == [
            {"step": 0.0, "loss": 1.0},
            {"step": 1.0, "loss": 0.5, "acc": 0.9},
        ]
