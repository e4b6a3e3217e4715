"""Property-based round-trip tests for the wire and checkpoint formats.

Hypothesis fuzzes parameter-tree shapes (including 0-d and zero-size
arrays), source dtypes, names, and JSON state; and proves the decoders
*reject* every strict prefix of a valid blob/file rather than silently
half-decoding it.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.autodiff import Tensor
from repro.utils.checkpoint import load_checkpoint, save_checkpoint
from repro.utils.serialization import (
    deserialize_params,
    payload_bytes,
    serialize_params,
)

SETTINGS = settings(max_examples=50, deadline=None)

#: printable-ish names, including characters that stress utf-8 encoding
NAMES = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=16,
)


@st.composite
def params_trees(draw, keep_dtype=False):
    """Trees of 0-3-d tensors, zero-size dimensions included; with
    ``keep_dtype`` each tensor holds its integer or float32 source array
    as is (a ``Tensor`` casts to float64; the wire format must too)."""
    names = draw(st.lists(NAMES, min_size=0, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = {}
    for name in names:
        ndim = draw(st.integers(min_value=0, max_value=3))
        shape = tuple(
            draw(st.integers(min_value=0, max_value=4)) for _ in range(ndim)
        )
        dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
        if np.issubdtype(dtype, np.integer):
            data = rng.integers(-1000, 1000, size=shape).astype(dtype)
        else:
            data = rng.standard_normal(size=shape).astype(dtype)
        params[name] = Tensor(data)
        if keep_dtype:
            params[name].data = data
    return params


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=16),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)

json_states = st.dictionaries(st.text(max_size=8), json_values, max_size=5)


def assert_trees_equal(restored, original):
    assert restored.keys() == original.keys()
    for name, tensor in original.items():
        assert restored[name].data.shape == tensor.data.shape
        np.testing.assert_array_equal(restored[name].data, tensor.data)
        assert restored[name].data.dtype == np.float64


class TestSerializationProperties:
    @SETTINGS
    @given(params=params_trees())
    def test_round_trip_is_exact(self, params):
        blob = serialize_params(params)
        assert payload_bytes(params) == len(blob)
        assert_trees_equal(deserialize_params(blob), params)

    @settings(max_examples=200, deadline=None)
    @given(params=params_trees(keep_dtype=True))
    def test_payload_bytes_is_the_wire_size(self, params):
        """Computed from names and shapes alone, without encoding."""
        assert payload_bytes(params) == len(serialize_params(params))

    @SETTINGS
    @given(params=params_trees(), data=st.data())
    def test_every_strict_prefix_is_rejected(self, params, data):
        blob = serialize_params(params)
        cut = data.draw(st.integers(0, len(blob) - 1), label="prefix length")
        with pytest.raises(ValueError):
            deserialize_params(blob[:cut])

    @SETTINGS
    @given(params=params_trees(), data=st.data())
    def test_magic_corruption_is_rejected(self, params, data):
        blob = bytearray(serialize_params(params))
        position = data.draw(st.integers(0, 3), label="corrupt byte")
        blob[position] ^= 0xFF
        with pytest.raises(ValueError, match="not a serialized"):
            deserialize_params(bytes(blob))

    def test_unknown_version_is_rejected(self):
        blob = bytearray(serialize_params({}))
        blob[4] ^= 0xFF  # low byte of the little-endian version field
        with pytest.raises(ValueError, match="unsupported version"):
            deserialize_params(bytes(blob))


class TestCheckpointProperties:
    @SETTINGS
    @given(params=params_trees(), state=json_states)
    def test_file_round_trip_is_exact(self, params, state):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ckpt")
            save_checkpoint(path, params, state)
            checkpoint = load_checkpoint(path)
        assert_trees_equal(checkpoint.params, params)
        # json round-trips ints, shortest-repr floats, and text exactly
        assert checkpoint.state == state

    @SETTINGS
    @given(params=params_trees(), state=json_states, data=st.data())
    def test_every_truncation_is_rejected(self, params, state, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ckpt")
            save_checkpoint(path, params, state)
            size = os.path.getsize(path)
            cut = data.draw(st.integers(0, size - 1), label="file length")
            with open(path, "rb") as handle:
                prefix = handle.read(cut)
            with open(path, "wb") as handle:
                handle.write(prefix)
            with pytest.raises(ValueError):
                load_checkpoint(path)

    @SETTINGS
    @given(params=params_trees(), data=st.data())
    def test_magic_corruption_is_rejected(self, params, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ckpt")
            save_checkpoint(path, params, {})
            with open(path, "rb") as handle:
                raw = bytearray(handle.read())
            raw[data.draw(st.integers(0, 3), label="corrupt byte")] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(raw))
            with pytest.raises(ValueError, match="not a repro checkpoint"):
                load_checkpoint(path)

    def test_garbage_header_is_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.ckpt")
            save_checkpoint(path, {}, {"t": 3})
            with open(path, "rb") as handle:
                raw = bytearray(handle.read())
            raw[10] ^= 0xFF  # first byte of the JSON header
            with open(path, "wb") as handle:
                handle.write(bytes(raw))
            with pytest.raises(ValueError, match="corrupt state header"):
                load_checkpoint(path)
