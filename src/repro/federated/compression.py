"""Upload compression schemes.

The platform↔edge uplink is the bottleneck the paper's T0 knob exists to
relieve; compression attacks the same cost from the other side.  Two
standard schemes are provided, both with exact wire-size accounting so the
benches can trade accuracy against bytes:

* :class:`UniformQuantizer` — per-tensor affine uint8/uint16 quantization
  (the de-facto FL baseline);
* :class:`TopKSparsifier` — keep the k largest-magnitude coordinates of
  each tensor; indices + values are shipped.

Both implement ``compress(params) -> blob`` / ``decompress(blob) -> params``
and are drop-in for the platform's serialization path via
:class:`CompressedPlatform`.
"""

from __future__ import annotations

import io
import struct
from typing import Dict, List, Sequence

import numpy as np

from ..autodiff import Tensor
from ..nn.parameters import Params, num_bytes
from ..obs.telemetry import NullTelemetry, Telemetry
from .node import EdgeNode
from .platform import Platform

__all__ = ["UniformQuantizer", "TopKSparsifier", "CompressedPlatform"]

_MAGIC_Q = b"RPQZ"
_MAGIC_S = b"RPSK"


class UniformQuantizer:
    """Per-tensor affine quantization to ``bits`` ∈ {8, 16}."""

    def __init__(self, bits: int = 8) -> None:
        if bits not in (8, 16):
            raise ValueError("bits must be 8 or 16")
        self.bits = bits
        self._dtype = np.uint8 if bits == 8 else np.uint16
        self._levels = (1 << bits) - 1

    def compress(self, params: Params) -> bytes:
        buffer = io.BytesIO()
        buffer.write(_MAGIC_Q)
        buffer.write(struct.pack("<BI", self.bits, len(params)))
        for name in sorted(params):
            array = np.asarray(params[name].data, dtype=np.float64)
            low = float(array.min()) if array.size else 0.0
            high = float(array.max()) if array.size else 0.0
            scale = (high - low) / self._levels if high > low else 1.0
            quantized = np.round((array - low) / scale).astype(self._dtype)
            encoded_name = name.encode("utf-8")
            buffer.write(struct.pack("<H", len(encoded_name)))
            buffer.write(encoded_name)
            buffer.write(struct.pack("<B", array.ndim))
            buffer.write(struct.pack(f"<{array.ndim}q", *array.shape))
            buffer.write(struct.pack("<dd", low, scale))
            buffer.write(quantized.tobytes())
        return buffer.getvalue()

    def decompress(self, blob: bytes) -> Params:
        buffer = io.BytesIO(blob)
        if buffer.read(4) != _MAGIC_Q:
            raise ValueError("not a quantized parameter blob")
        bits, count = struct.unpack("<BI", buffer.read(5))
        if bits != self.bits:
            raise ValueError(f"blob quantized at {bits} bits, expected {self.bits}")
        itemsize = np.dtype(self._dtype).itemsize
        params: Dict[str, Tensor] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", buffer.read(2))
            name = buffer.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", buffer.read(1))
            shape = (
                struct.unpack(f"<{ndim}q", buffer.read(8 * ndim)) if ndim else ()
            )
            low, scale = struct.unpack("<dd", buffer.read(16))
            size = int(np.prod(shape)) if shape else 1
            raw = np.frombuffer(buffer.read(itemsize * size), dtype=self._dtype)
            array = raw.astype(np.float64).reshape(shape) * scale + low
            params[name] = Tensor(array)
        return params


class TopKSparsifier:
    """Keep the ``fraction`` largest-magnitude entries of each tensor."""

    def __init__(self, fraction: float) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction

    def compress(self, params: Params) -> bytes:
        buffer = io.BytesIO()
        buffer.write(_MAGIC_S)
        buffer.write(struct.pack("<I", len(params)))
        for name in sorted(params):
            array = np.asarray(params[name].data, dtype=np.float64).reshape(-1)
            k = max(1, int(np.ceil(self.fraction * array.size)))
            top = np.argpartition(np.abs(array), -k)[-k:].astype(np.uint32)
            values = array[top]
            encoded_name = name.encode("utf-8")
            shape = params[name].shape
            buffer.write(struct.pack("<H", len(encoded_name)))
            buffer.write(encoded_name)
            buffer.write(struct.pack("<B", len(shape)))
            buffer.write(struct.pack(f"<{len(shape)}q", *shape))
            buffer.write(struct.pack("<I", k))
            buffer.write(top.tobytes())
            buffer.write(values.tobytes())
        return buffer.getvalue()

    def decompress(self, blob: bytes) -> Params:
        buffer = io.BytesIO(blob)
        if buffer.read(4) != _MAGIC_S:
            raise ValueError("not a sparsified parameter blob")
        (count,) = struct.unpack("<I", buffer.read(4))
        params: Dict[str, Tensor] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", buffer.read(2))
            name = buffer.read(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", buffer.read(1))
            shape = (
                struct.unpack(f"<{ndim}q", buffer.read(8 * ndim)) if ndim else ()
            )
            (k,) = struct.unpack("<I", buffer.read(4))
            indices = np.frombuffer(buffer.read(4 * k), dtype=np.uint32)
            values = np.frombuffer(buffer.read(8 * k), dtype=np.float64)
            size = int(np.prod(shape)) if shape else 1
            flat = np.zeros(size)
            flat[indices] = values
            params[name] = Tensor(flat.reshape(shape))
        return params


class CompressedPlatform(Platform):
    """A platform whose uploads go through a lossy compressor.

    Downloads (global model broadcast) stay full-precision — the standard
    asymmetric design, since the downlink is cheap and a lossy global model
    would compound error across rounds.  Each upload is charged its
    compressed size, and the round aggregates the decompressed trees.
    """

    def __init__(self, compressor, **kwargs) -> None:
        super().__init__(**kwargs)
        self.compressor = compressor

    def _receive(
        self,
        nodes: Sequence[EdgeNode],
        round_index: int,
        tel: "Telemetry | NullTelemetry",
    ) -> List[Params]:
        trees: List[Params] = []
        compressed_bytes = 0
        raw_bytes = 0
        for node in nodes:
            assert node.params is not None  # check_uploads ran
            blob = self.compressor.compress(node.params)
            self.comm_log.charge_upload(round_index, node.node_id, len(blob))
            compressed_bytes += len(blob)
            if tel.enabled:
                raw_bytes += num_bytes(node.params)
            trees.append(self.compressor.decompress(blob))
        tel.counter("fl_bytes_up_total").inc(compressed_bytes)
        if tel.enabled and compressed_bytes:
            tel.counter("fl_bytes_up_raw_total").inc(raw_bytes)
            tel.series("fl_compression_ratio").observe(
                round_index, raw_bytes / compressed_bytes
            )
        return trees
