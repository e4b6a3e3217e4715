"""Workload sizes of the end-to-end benchmark (plain data, no ``repro``).

Both ``bench_e2e.py`` and the child read this module; only the child imports
``repro``.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``; here are only the knobs.  ``SMOKE`` shrinks every workload
to a sub-second run for ``--smoke`` (the smoke test and CI), keeping the
code path — executor, strategy, aggregation mode — the same.

Two choices keep the timings steady across seeds:

* evaluation and adversarial-generation rounds are 20–25% of all rounds,
  so ``round_p90_s`` falls inside that cluster rather than on its edge;
* ``fedml_sent140_vec`` trims every node to ``samples_per_node`` samples.
  The generator's power-law sizes would otherwise split the sources into
  a seed-dependent number of stacking groups (one per distinct shape),
  and the run time would follow the seed instead of the code.
"""

from __future__ import annotations

from typing import Any, Dict

#: the paper's target protocol (eq. 6): K-shot targets, 10 adaptation steps
ADAPT_K = 5
ADAPT_STEPS = 10
#: back-to-back ``evaluate_adaptation`` executions per repeat (median kept)
ADAPT_REPEATS = 10
#: share of nodes designated sources, as in the paper and the CLI default
SOURCE_FRACTION = 0.8

FULL: Dict[str, Dict[str, Any]] = {
    "fedml_synth": {
        "kind": "engine", "dataset": "synthetic", "algorithm": "fedml",
        "executor": "serial", "nodes": 30, "alpha": 0.05, "beta": 0.05,
        "t0": 5, "iterations": 200, "eval_every": 5,
    },
    "fedml_sent140_vec": {
        "kind": "engine", "dataset": "sent140", "algorithm": "fedml",
        "executor": "vectorized", "nodes": 30, "samples_per_node": 32,
        "alpha": 0.05, "beta": 0.05, "t0": 5, "iterations": 200,
        "eval_every": 5,
    },
    "robust_mnist": {
        "kind": "engine", "dataset": "mnist", "algorithm": "robust-fedml",
        "executor": "serial", "nodes": 30, "alpha": 0.05, "beta": 0.05,
        "t0": 5, "iterations": 140, "eval_every": 1,
        "lam": 1.0, "nu": 1.0, "ta": 10, "n0": 4, "r_max": 7,
    },
    "fleet_1m": {
        "kind": "fleet", "fleet_size": 1_000_000, "sampled": 256,
        "rounds": 20, "local_steps": 1, "buffer_size": 64,
        "staleness_alpha": 0.5, "learning_rate": 0.05, "alpha": 0.05,
        "eval_every": 5, "targets": 6,
    },
}

SMOKE: Dict[str, Dict[str, Any]] = {
    "fedml_synth": {"nodes": 10, "iterations": 10, "eval_every": 1},
    "fedml_sent140_vec": {"nodes": 10, "iterations": 10, "eval_every": 1},
    "robust_mnist": {
        "nodes": 10, "iterations": 10, "eval_every": 1, "ta": 2, "n0": 1,
        "r_max": 1,
    },
    "fleet_1m": {"fleet_size": 10_000, "sampled": 32, "rounds": 4,
                 "buffer_size": 8, "eval_every": 1},
}


def spec(name: str, smoke: bool = False) -> Dict[str, Any]:
    """The knobs of workload ``name`` (``KeyError`` for unknown names)."""
    merged = dict(FULL[name])
    if smoke:
        merged.update(SMOKE[name])
    return merged


def source_count(nodes: int) -> int:
    """Sources the ``split_sources_targets(SOURCE_FRACTION)`` split yields."""
    cut = max(1, int(round(SOURCE_FRACTION * nodes)))
    return min(cut, nodes - 1)


def planned_updates(name: str, smoke: bool = False) -> int:
    """Node updates one repeat attempts — an operation in ``failed_frac``."""
    knobs = spec(name, smoke)
    if knobs["kind"] == "fleet":
        return int(knobs["sampled"] * knobs["rounds"] * knobs["local_steps"])
    return int(source_count(knobs["nodes"]) * knobs["iterations"])
