"""Fixed-seed regression: FOMAML and Meta-SGD reproduce their golden.

``tape_golden.json`` was captured (by ``capture_tape_golden.py``) from a
known-good revision with the fast path off: FOMAML and Meta-SGD on LogReg
and on the batch-norm embedding model, every local step a first-order
backward over the recorded graph.  Under ``fastpath.disabled()`` θ,
Meta-SGD's log-rates and every history value are compared with
``np.array_equal``, so a change to the backward's arithmetic or
accumulation order shows up here, not as a tolerance drift in the engine
goldens (``rtol=1e-9``).

With the fast path on the same runs take the closed-form meta kernel's
first-order leg and rate tree, so they are held to the golden within
``KERNEL_TOL``: θ and the log-rates relative to each field's largest
entry (an element-wise ``rtol`` fails on the embedding model's near-zero
entries, which move by about 1e-17 absolute), each history value
relative to itself.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.autodiff import fastpath

from .capture_tape_golden import run

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "tape_golden.json").read_text()
)
#: how far a kernel-served run may sit from the tape's golden
KERNEL_TOL = 1e-12


def _check(got, golden, close):
    assert set(got) == set(golden)
    for field in ("final_params", "log_alpha"):
        if field in golden:
            assert close(np.array(got[field]), np.array(golden[field])), field
    assert len(got["records"]) == len(golden["records"])
    for record, expected in zip(got["records"], golden["records"]):
        assert set(record) == set(expected)
        for name in expected:
            assert close(np.asarray(record[name]), np.asarray(expected[name])), name


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_tape_run_matches_golden(key):
    algorithm, dataset = key.split("/")
    with fastpath.disabled():
        got = run(algorithm, dataset)
    _check(got, GOLDEN[key], np.array_equal)


def _within_kernel_tol(got, expected):
    scale = np.max(np.abs(expected))
    return got.shape == expected.shape and bool(
        np.max(np.abs(got - expected)) <= KERNEL_TOL * scale
    )


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_kernel_run_matches_golden(key):
    algorithm, dataset = key.split("/")
    assert fastpath.enabled()
    _check(run(algorithm, dataset), GOLDEN[key], _within_kernel_tol)
