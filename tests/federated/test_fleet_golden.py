"""Fixed-seed regression: the fleet reproduces its golden runs bit for bit.

``fleet_golden.json`` was captured (by ``capture_fleet_golden.py``) from a
known-good revision: buffered FedAvg, FedProx and FedML over 5,000
registered nodes under a crash/drop/delay/corrupt plan with a round
timeout, plus a few shards from ``SyntheticShardFactory.make``.  Every
value the fleet derives from its seeded streams is compared exactly: a
change to how a stream is built or drawn shows up here, not as a
tolerance drift.
"""

import json
import pathlib

import numpy as np
import pytest

from .capture_fleet_golden import (
    build_shards,
    build_simulator,
    shard_digest,
    summarize,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "fleet_golden.json").read_text()
)


@pytest.mark.parametrize("algorithm", sorted(GOLDEN["runs"]))
def test_fleet_run_matches_golden(algorithm):
    got = summarize(build_simulator(algorithm).run())
    golden = GOLDEN["runs"][algorithm]
    assert np.array_equal(
        np.array(got.pop("final_params")), np.array(golden["final_params"])
    )
    assert got == {k: v for k, v in golden.items() if k != "final_params"}


@pytest.mark.parametrize("node_id", sorted(GOLDEN["shards"], key=int))
def test_shard_matches_golden(node_id):
    assert shard_digest(build_shards(), int(node_id)) == (
        GOLDEN["shards"][node_id]
    )
