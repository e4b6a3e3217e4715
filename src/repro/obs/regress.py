"""Perf-regression gate over the benchmark harness's JSON outputs.

The benchmarks (``benchmarks/bench_*.py``) write flat JSON result files
(``BENCH_engine.json``, ``BENCH_autodiff.json``) on every CI run, but until
this module nothing *read* them — a 3× slowdown would sail through review
as long as tests stayed green.  ``repro bench-check`` closes that gap:

* ``benchmarks/baselines.json`` (committed) records, per benchmark file,
  the expected value of each gated metric with a tolerance band;
* ``repro bench-check BENCH_engine.json ... --baseline benchmarks/baselines.json``
  compares fresh results against those bands and exits non-zero on any
  regression, which is what makes it a CI gate;
* a benchmark file with no baseline entry is *seeded* — its gated metrics
  are written into the baseline file and the run passes — so the gate
  bootstraps itself on first contact with a new benchmark;
* ``--update`` rewrites the baseline from the current results (the
  intentional-change escape hatch; the diff shows up in review).

What gets gated is deliberately machine-portable: **ratios** (``speedup``)
and **flags** (``deterministic``, ``within_tolerance``), plus absolute
throughput with a wide band.  Tolerances are fractional: a ``higher``
metric fails below ``value * (1 - tolerance)``, a ``lower`` metric above
``value * (1 + tolerance)``, an ``exact`` metric on any change.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "BASELINE_VERSION",
    "Regression",
    "gated_metrics",
    "check_result",
    "load_baselines",
    "save_baselines",
    "run_gate",
]

#: bump on any non-additive change to the baselines.json layout
BASELINE_VERSION = 1

#: fractional tolerance for ratio metrics (speedup): fail below 50% of base
RATIO_TOLERANCE = 0.5
#: fractional tolerance for absolute throughput: CI machines vary a lot
THROUGHPUT_TOLERANCE = 0.6


@dataclass(frozen=True)
class Regression:
    """One gated metric outside its tolerance band."""

    bench: str
    metric: str
    message: str

    def __str__(self) -> str:
        return f"{self.bench}: {self.metric}: {self.message}"


def gated_metrics(result: dict) -> Dict[str, dict]:
    """Derive the gate spec for one benchmark result (used when seeding).

    Flags gate exactly, ``speedup`` gates as a ratio, ``*_per_sec``
    throughput gates with the wide band.  Everything else (configuration
    echoes like ``nodes``/``cpus``, nested stats) is informational and
    stays ungated.
    """
    spec: Dict[str, dict] = {}
    for key, value in result.items():
        if isinstance(value, bool):
            spec[key] = {"value": value, "direction": "exact"}
        elif key == "speedup" and isinstance(value, (int, float)):
            spec[key] = {
                "value": value,
                "direction": "higher",
                "tolerance": RATIO_TOLERANCE,
            }
        elif key.endswith("_per_sec") and isinstance(value, (int, float)):
            spec[key] = {
                "value": value,
                "direction": "higher",
                "tolerance": THROUGHPUT_TOLERANCE,
            }
    return spec


def check_result(
    bench: str, result: dict, entry: dict
) -> List[Regression]:
    """Compare one benchmark result against its baseline entry."""
    failures: List[Regression] = []
    for metric, spec in sorted(entry.get("metrics", {}).items()):
        if metric not in result:
            failures.append(
                Regression(
                    bench, metric, "metric missing from benchmark output"
                )
            )
            continue
        current = result[metric]
        base = spec["value"]
        direction = spec.get("direction", "higher")
        if direction == "exact":
            if current != base:
                failures.append(
                    Regression(
                        bench, metric, f"expected {base!r}, got {current!r}"
                    )
                )
            continue
        tolerance = float(spec.get("tolerance", RATIO_TOLERANCE))
        current_f, base_f = float(current), float(base)
        if direction in ("higher", "lower") and not math.isfinite(current_f):
            # NaN compares False against any bound, so it would pass both.
            failures.append(
                Regression(bench, metric, f"non-finite value {current_f!r}")
            )
            continue
        if direction == "higher":
            floor = base_f * (1.0 - tolerance)
            if current_f < floor:
                failures.append(
                    Regression(
                        bench,
                        metric,
                        f"{current_f:.4g} below floor {floor:.4g} "
                        f"(baseline {base_f:.4g}, tolerance "
                        f"{tolerance:.0%})",
                    )
                )
        elif direction == "lower":
            ceiling = base_f * (1.0 + tolerance)
            if current_f > ceiling:
                failures.append(
                    Regression(
                        bench,
                        metric,
                        f"{current_f:.4g} above ceiling {ceiling:.4g} "
                        f"(baseline {base_f:.4g}, tolerance "
                        f"{tolerance:.0%})",
                    )
                )
        else:
            failures.append(
                Regression(
                    bench, metric, f"unknown direction '{direction}'"
                )
            )
    return failures


def load_baselines(path: str) -> dict:
    """Read (or initialise) the committed baseline file."""
    if not os.path.exists(path):
        return {"version": BASELINE_VERSION, "benchmarks": {}}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    version = int(data.get("version", 0))
    if version > BASELINE_VERSION:
        raise ValueError(
            f"{path}: baseline version {version} is newer than this "
            f"build understands ({BASELINE_VERSION})"
        )
    data.setdefault("benchmarks", {})
    return data


def save_baselines(path: str, data: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_gate(
    bench_paths: Sequence[str],
    baseline_path: str,
    update: bool = False,
) -> Tuple[List[Regression], List[str]]:
    """The ``repro bench-check`` core: compare, seed, optionally update.

    Returns ``(regressions, report_lines)``; the CLI exits non-zero when
    ``regressions`` is non-empty.  Seeding and ``--update`` both rewrite
    ``baseline_path`` so the change lands in the working tree for review.
    """
    baselines = load_baselines(baseline_path)
    entries: Dict[str, dict] = baselines["benchmarks"]
    failures: List[Regression] = []
    lines: List[str] = []
    dirty = False
    for path in bench_paths:
        bench = os.path.basename(path)
        if not os.path.exists(path):
            failures.append(
                Regression(bench, "-", f"benchmark output {path} not found")
            )
            continue
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if bench not in entries or update:
            verb = "updated" if bench in entries else "seeded"
            entries[bench] = {"metrics": gated_metrics(result)}
            dirty = True
            lines.append(
                f"{bench}: {verb} baseline "
                f"({len(entries[bench]['metrics'])} gated metrics)"
            )
            continue
        bench_failures = check_result(bench, result, entries[bench])
        failures.extend(bench_failures)
        gated = len(entries[bench].get("metrics", {}))
        if bench_failures:
            for failure in bench_failures:
                lines.append(f"REGRESSION {failure}")
        else:
            lines.append(f"{bench}: {gated} gated metrics within tolerance")
    if dirty:
        save_baselines(baseline_path, baselines)
        lines.append(f"baseline written to {baseline_path}")
    return failures, lines
