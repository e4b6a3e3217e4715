"""Schedule counts fail when a config is built, naming the field.

``eval_every`` divides the aggregation count, so 0 would fail mid-run
with ``ZeroDivisionError``; ``inner_steps=0`` would fail in ``fit`` with
a message naming no field.  Every config with either field rejects a
value below 1.
"""

from dataclasses import fields

import pytest

from repro.core import (
    ADMLConfig,
    AsyncFedMLConfig,
    FedAvgConfig,
    FedMLConfig,
    FedProxConfig,
    MetaSGDConfig,
    ReptileConfig,
    RobustFedMLConfig,
)

CONFIGS = (
    FedMLConfig, RobustFedMLConfig, FedAvgConfig, FedProxConfig,
    ReptileConfig, MetaSGDConfig, ADMLConfig, AsyncFedMLConfig,
)
CASES = [
    (config, name)
    for config in CONFIGS
    for name in ("eval_every", "inner_steps")
    if name in {f.name for f in fields(config)}
]


@pytest.mark.parametrize(
    "config, name", CASES, ids=[f"{c.__name__}-{n}" for c, n in CASES]
)
def test_counts_below_one_rejected_at_construction(config, name):
    assert getattr(config(**{name: 1}), name) == 1
    for value in (0, -1):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            config(**{name: value})
