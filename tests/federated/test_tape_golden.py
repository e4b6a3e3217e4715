"""Fixed-seed regression: the tape-trained runs reproduce their golden bit for bit.

``tape_golden.json`` was captured (by ``capture_tape_golden.py``) from a
known-good revision: FOMAML and Meta-SGD on LogReg and on the batch-norm
embedding model, the runs whose every local step takes a first-order
backward over the recorded graph.  θ, Meta-SGD's log-rates and every
history value are compared with ``np.array_equal``, so a change to the
backward's arithmetic or accumulation order shows up here, not as a
tolerance drift in the engine goldens (``rtol=1e-9``).
"""

import json
import pathlib

import numpy as np
import pytest

from .capture_tape_golden import run

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "tape_golden.json").read_text()
)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_tape_run_matches_golden(key):
    algorithm, dataset = key.split("/")
    got = run(algorithm, dataset)
    golden = GOLDEN[key]
    assert set(got) == set(golden)
    for field in ("final_params", "log_alpha"):
        if field in golden:
            assert np.array_equal(np.array(got[field]), np.array(golden[field]))
    assert len(got["records"]) == len(golden["records"])
    for record, expected in zip(got["records"], golden["records"]):
        assert set(record) == set(expected)
        for name in expected:
            assert np.array_equal(record[name], expected[name]), name
