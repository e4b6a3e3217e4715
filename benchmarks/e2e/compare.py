"""Compare two sets of end-to-end benchmark runs, metric by metric.

Each input is the file ``bench_e2e.py --all`` writes: several runs of
every workload (one seed each).  ``A`` is the base (parent commit),
``B`` the candidate::

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json B.json --layers

For every workload × end-to-end metric it prints both medians with their
quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:

``unresolved``
    either side's spread (IQR / median) exceeds the bound, and not every
    run of B beats every run of A — the sets cannot tell a change of
    that size from noise;
``regressed``
    B's median is worse than A's by more than the bound;
``improved``
    B's median is better by more than A's own spread and, when the sets
    share seeds, B wins at least nine tenths of the seed-paired runs
    (ties count for neither);
``within bound``
    anything else.

Exits 1 when any pairing regressed.  ``--layers`` adds the traced
per-layer metrics of both sets, unjudged, for attributing a change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "runs" not in payload:
        raise SystemExit(f"{path}: not a 'bench_e2e.py --all' result file")
    return payload


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_values(
    runs: List[Dict[str, Any]], name: str
) -> Dict[int, float]:
    """``{seed: value}`` of one metric over a workload's runs."""
    return {
        int(run["seed"]): float(run["metrics"][name]["value"])
        for run in runs
        if name in run["metrics"]
    }


def verdict(
    a: Dict[int, float], b: Dict[int, float], better: str, bound: float,
) -> Dict[str, Any]:
    """Judge B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_vals, b_vals = list(a.values()), list(b.values())
    a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    a_spread, b_spread = spread(a_vals), spread(b_vals)
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    losses = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    if better == "lower":
        b_beats_all = max(b_vals) < min(a_vals)
    else:
        b_beats_all = min(b_vals) > max(a_vals)
    if max(a_spread, b_spread) > bound:
        label = "improved" if b_beats_all else "unresolved"
    elif worse > bound:
        label = "regressed"
    elif -worse > a_spread and (not seeds or wins >= 0.9 * len(seeds)):
        label = "improved"
    else:
        label = "within bound"
    return {
        "a": quartiles(a_vals), "b": quartiles(b_vals), "worse": worse,
        "a_spread": a_spread, "b_spread": b_spread, "pairs": len(seeds),
        "wins": wins, "losses": losses, "verdict": label,
    }


def compare(
    a: Dict[str, Any], b: Dict[str, Any], bench: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for workload in [w["name"] for w in bench["workloads"]]:
        a_runs = a["runs"].get(workload, [])
        b_runs = b["runs"].get(workload, [])
        for metric in bench["end_to_end"]:
            a_vals = metric_values(a_runs, metric["name"])
            b_vals = metric_values(b_runs, metric["name"])
            if not a_vals or not b_vals:
                rows.append({"workload": workload, "metric": metric["name"],
                             "verdict": "missing"})
                continue
            row = verdict(a_vals, b_vals, metric["better"], metric["bound"])
            row.update(workload=workload, metric=metric["name"],
                       unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'worse':>7} {'bound':>6} "
        f"{'wins':>6}  verdict"
    ]
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['workload']:<18} {row['metric']:<12} missing")
            continue
        wins = f"{row['wins']}/{row['pairs']}" if row["pairs"] else "-"
        lines.append(
            f"{row['workload']:<18} {row['metric']:<12} {_fmt(row['a']):<34} "
            f"{_fmt(row['b']):<34} {100 * row['worse']:>6.1f}% "
            f"{100 * row['bound']:>5.1f}% {wins:>6}  {row['verdict']}"
        )
    return "\n".join(lines)


def render_layers(
    a: Dict[str, Any], b: Dict[str, Any], bench: Dict[str, Any]
) -> str:
    lines = [f"{'workload':<18} {'layer metric':<40} {'A':>14} {'B':>14}"]
    for workload in [w["name"] for w in bench["workloads"]]:
        a_metrics = a.get("traced", {}).get(workload, {}).get("metrics", {})
        b_metrics = b.get("traced", {}).get(workload, {}).get("metrics", {})
        for metric in bench["per_layer"]:
            name = metric["name"]
            a_val = a_metrics.get(name, {}).get("value", 0.0)
            b_val = b_metrics.get(name, {}).get("value", 0.0)
            if a_val or b_val:
                lines.append(
                    f"{workload:<18} {name:<40} {a_val:>14.6g} {b_val:>14.6g}"
                )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", help="base set (parent commit)")
    parser.add_argument("b", help="candidate set")
    parser.add_argument("--layers", action="store_true",
                        help="also list the traced per-layer metrics")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    a, b = load(args.a), load(args.b)
    rows = compare(a, b, bench)
    print(render(rows))
    if args.layers:
        print()
        print(render_layers(a, b, bench))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
