"""Host calibration and environment pinning for the end-to-end benchmark.

A shared 2-vCPU virtual machine does not run at one speed.  On the
reference host the same code alternates between speed states up to 2x
apart, each lasting seconds to minutes (other tenants on the physical
cores).  Calibrating once before and once after a multi-second repeat
cannot follow that, so the child process probes the host at every
*segment boundary* of its timed regions — before set-up ends, at every
round boundary, around each adaptation — with :func:`probe`, a fixed
~10 ms loop that imports nothing from ``repro``.  Each segment between
two probes is normalized::

    normalized_s = raw_s * CALIB_REF_S / calib_s

where ``calib_s`` is the mean duration of the segment's two bounding
probes.  Probe time itself is excluded from every reported duration.
Raw seconds, ``calib_s`` and the scale factor stay in every per-repeat
record, so the normalization can be audited or undone.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: duration of one :func:`probe` on the reference host (2-vCPU x86-64
#: virtual machine, one BLAS thread, in its fast state): normalized times
#: read in "reference-host seconds"
CALIB_REF_S = 0.0080

#: iterations of the fixed probe body (sized to ~CALIB_REF_S)
PROBE_ITERS = 1500

#: environment every benchmark child runs under: one BLAS/OpenMP thread
#: (the workloads are small-matrix, so extra threads only add contention
#: and run-to-run variance) and a fixed hash seed.
PINNED_ENV: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def pinned_env() -> Dict[str, str]:
    """A copy of ``os.environ`` with :data:`PINNED_ENV` applied."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


class _Node:
    __slots__ = ("value", "parents", "index")

    def __init__(self, value: Any, parents: Tuple["_Node", ...], index: int):
        self.value = value
        self.parents = parents
        self.index = index


def probe(iters: int = PROBE_ITERS) -> float:
    """Wall seconds of a fixed tape-like Python + NumPy loop, now.

    Each iteration builds an 8-node chain of small objects, walks it back
    as a backward pass does, calls a closure and one small NumPy op — the
    interpreter-bound mix a MAML local step consists of.  (A loop of
    mostly NumPy kernels tracked the workloads' speed worse.)
    """
    import numpy as np

    value = np.ones((24, 10))
    checksum = 0.0
    start = time.perf_counter()
    for i in range(iters):
        last: Optional[_Node] = None
        for j in range(8):
            last = _Node(value, () if last is None else (last,), j)
        seen: Dict[int, _Node] = {}
        stack = [last]
        while stack:
            node = stack.pop()
            if node is None or node.index in seen:
                continue
            seen[node.index] = node
            stack.extend(node.parents)
        step = (lambda g, k=i: g * k)(1e-9)
        value = value + step
        checksum += len(seen) + float(value[0, 0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(checksum):
        raise RuntimeError("calibration probe produced a non-finite checksum")
    return elapsed


class ProbeLog:
    """Probes taken at segment boundaries, in time order.

    Each entry is ``(start, end)`` of one probe; the time between one
    probe's end and the next one's start is a *segment* of measured work.
    """

    def __init__(self) -> None:
        self.probes: List[Tuple[float, float]] = []

    def take(self) -> float:
        """Probe now; returns the probe's end (where the next segment starts)."""
        start = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.probes.append((start, end))
        return end


def segments(
    probes: Sequence[Tuple[float, float]]
) -> List[Dict[str, float]]:
    """Raw and normalized duration of each segment between two probes."""
    out: List[Dict[str, float]] = []
    for (s0, e0), (s1, e1) in zip(probes, probes[1:]):
        calib_s = ((e0 - s0) + (e1 - s1)) / 2.0
        raw = s1 - e0
        scale = CALIB_REF_S / calib_s
        out.append(
            {"raw_s": raw, "calib_s": calib_s, "scale": scale,
             "norm_s": raw * scale}
        )
    return out
