"""Parameter serialization with byte accounting.

The federated substrate charges communication cost per aggregation round;
these helpers define the wire format (a flat header + raw float64 payload)
and measure its size, so the cost model reflects what a real edge deployment
would upload.  The size depends only on names and shapes, so
:func:`payload_bytes` computes it without encoding the tree; checkpoints,
fingerprints and the transfer to a target use the bytes themselves.
"""

from __future__ import annotations

import hashlib
import io
import struct
from typing import Dict

import numpy as np

from ..autodiff import Tensor
from ..nn.parameters import Params

__all__ = [
    "serialize_params",
    "deserialize_params",
    "payload_bytes",
    "params_fingerprint",
]

_MAGIC = b"RPRM"
_VERSION = 1
#: bytes before the first entry: magic, version and entry count
_HEADER_BYTES = len(_MAGIC) + struct.calcsize("<HI")
#: fixed bytes per entry: name length and rank
_ENTRY_BYTES = struct.calcsize("<H") + struct.calcsize("<B")


def serialize_params(params: Params) -> bytes:
    """Encode a parameter tree to bytes (sorted keys, float64 payload)."""
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    buffer.write(struct.pack("<HI", _VERSION, len(params)))
    for name in sorted(params):
        encoded_name = name.encode("utf-8")
        array = np.asarray(params[name].data, dtype=np.float64)
        buffer.write(struct.pack("<H", len(encoded_name)))
        buffer.write(encoded_name)
        buffer.write(struct.pack("<B", array.ndim))
        buffer.write(struct.pack(f"<{array.ndim}q", *array.shape))
        # tobytes() always emits C order, even for 0-d / non-contiguous input
        # (np.ascontiguousarray would silently promote 0-d arrays to 1-d).
        buffer.write(array.tobytes())
    return buffer.getvalue()


def _read_exact(buffer: io.BytesIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes or fail loudly — never half-decode.

    A short read means the blob was truncated in transit or on disk; the
    float64 payload would otherwise silently decode to a smaller array.
    """
    data = buffer.read(count)
    if len(data) != count:
        raise ValueError(
            f"truncated parameter blob: expected {count} bytes of {what}, "
            f"got {len(data)}"
        )
    return data


def deserialize_params(blob: bytes) -> Params:
    """Inverse of :func:`serialize_params`; rejects truncated blobs."""
    buffer = io.BytesIO(blob)
    magic = buffer.read(4)
    if magic != _MAGIC:
        raise ValueError("not a serialized parameter blob")
    version, count = struct.unpack("<HI", _read_exact(buffer, 6, "header"))
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    params: Dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(buffer, 2, "name length"))
        name = _read_exact(buffer, name_len, "name").decode("utf-8")
        (ndim,) = struct.unpack("<B", _read_exact(buffer, 1, "rank"))
        shape = (
            struct.unpack(f"<{ndim}q", _read_exact(buffer, 8 * ndim, "shape"))
            if ndim
            else ()
        )
        if any(dim < 0 for dim in shape):
            raise ValueError(f"corrupt parameter blob: negative shape {shape}")
        size = int(np.prod(shape)) if shape else 1
        payload = _read_exact(buffer, 8 * size, f"payload of '{name}'")
        array = np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()
        params[name] = Tensor(array)
    return params


def payload_bytes(params: Params) -> int:
    """Exact wire size of a parameter tree under this format.

    Equals ``len(serialize_params(params))``: per entry the fixed fields,
    the UTF-8 name, one int64 per dimension and one float64 per element.
    Plain ints from ``ndim`` and ``size``, since this runs for every upload
    and broadcast.
    """
    total = _HEADER_BYTES
    for name, tensor in params.items():
        data = tensor.data
        total += _ENTRY_BYTES + len(name.encode("utf-8"))
        total += 8 * (data.ndim + data.size)
    return total


def params_fingerprint(params: Params) -> str:
    """Short content hash of a parameter tree (bit-sensitive).

    Two trees fingerprint equal iff :func:`serialize_params` produces the
    same bytes — same names, shapes, and float64 payloads down to the last
    bit.  Used by ``repro check-determinism`` to compare per-node state
    across runs without shipping the parameters themselves.
    """
    return hashlib.sha256(serialize_params(params)).hexdigest()[:16]
