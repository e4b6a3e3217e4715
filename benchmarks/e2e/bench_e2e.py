"""End-to-end benchmark: the paper's FedML workloads, timed and traced.

Measures one workload for ``--seconds`` and prints, as its last stdout
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/bench_e2e.py --workload fedml_synth --seed 0 \\
        --seconds 30 --trace 0

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Run every
workload, interleaved, and keep the runs for ``compare.py``::

    python3 benchmarks/e2e/bench_e2e.py --all --runs 5 --out A.json

Protocol (``README.md`` has the rationale):

* each repeat is a fresh child process (``child.py``) with one BLAS
  thread, run one at a time; repeats continue until ``--seconds`` is
  spent (at least :data:`MIN_REPEATS`);
* the child probes host speed (:func:`calib.probe`) at every segment
  boundary of its timed regions and scales each segment by
  ``CALIB_REF_S / calib_s``; raw seconds, ``calib_s`` and the scale stay
  in the per-repeat record written to ``benchmarks/e2e/out/``;
* metrics are medians over repeats; round latencies are pooled over the
  repeats of the run before taking p50/p90;
* the traced run (``--trace 1``) is one extra child with every layer
  wrapped, followed by untraced repeats that give the overhead base.

Correctness: every repeat must exit cleanly, pass the child's checks
(finite θ and loss, loss below its initial value, fleet residency within
``sampled + buffer``), and produce the same sha256 of final θ as every
other repeat of the run, traced or not.  A failure counts the repeat's
node updates as failed and makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import specs  # noqa: E402

#: repeats per run even when ``--seconds`` is spent sooner (two repeats
#: are needed to check that θ is reproducible)
MIN_REPEATS = 2
#: a repeat that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 75.0
#: no new repeat starts once the run has taken this long, so a slow host
#: still ends within the 180 s a run may take
HARD_STOP_S = 130.0
OUT_DIR = HERE / "out"


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> Optional[str]:
    """Why this directory cannot be benchmarked, or ``None`` if it can."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no repro sources under {ROOT / 'src'}"
    if not (ROOT / "BENCHMARK.json").is_file():
        return f"no BENCHMARK.json at {ROOT}"
    return None


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
def repeat(
    workload: str, seed: int, trace: bool, smoke: bool,
    trace_out: Optional[Path] = None,
) -> Dict[str, Any]:
    """One repeat: ``child.py``'s record (``None`` if it failed) and why."""
    entry: Dict[str, Any] = {"trace": trace, "error": "", "record": None}
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=calib.pinned_env(), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        entry["error"] = f"timed out after {CHILD_TIMEOUT_S:.0f} s"
        return entry
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        entry["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        return entry
    try:
        entry["record"] = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        entry["error"] = f"unparseable record: {exc}"
    return entry


def repeat_failures(entry: Dict[str, Any]) -> List[str]:
    record = entry["record"]
    if record is None:
        return [entry["error"]]
    return [name for name, ok in record["checks"].items() if not ok]


# ----------------------------------------------------------------------
# One run: repeats for --seconds, then the metrics
# ----------------------------------------------------------------------
def _quantile(values: Sequence[float], share: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[int(round(share * 100)) - 1]


def end_to_end(entries: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over repeats; round latencies pooled over repeats."""
    ok = [e["record"] for e in entries if e["record"] is not None]
    if not ok:
        return {}

    def median_of(pick: Any) -> float:
        return statistics.median(pick(record) for record in ok)

    pooled = [r for record in ok for r in record["rounds_s"]]
    return {
        "setup_s": median_of(lambda r: r["setup"]["norm_s"]),
        "train_s": median_of(lambda r: r["train"]["norm_s"]),
        "round_p50_s": _quantile(pooled, 0.5),
        "round_p90_s": _quantile(pooled, 0.9),
        "adapt_s": median_of(lambda r: r["adapt_s"]),
        "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"]),
        "rounds_pooled": float(len(pooled)),
        "train_raw_s": median_of(lambda r: r["train"]["raw_s"]),
    }


def per_layer(
    traced: Dict[str, Any], timed: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The traced child's layer metrics plus the tracing overhead."""
    record = traced["record"]
    if record is None:
        return {}
    metrics = dict(record["layers"])
    metrics["quality.final_loss"] = record["final_loss"]
    metrics["quality.target_acc"] = record["target_acc"]
    traced_train = record["train"]["norm_s"]
    metrics["obs.traced_train_s"] = traced_train
    base = end_to_end(timed).get("train_s")
    metrics["obs.trace_overhead_frac"] = (
        traced_train / base - 1.0 if base else 0.0
    )
    return metrics


def measure(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
    out_dir: Path,
) -> Dict[str, Any]:
    """Run the protocol for one workload; returns the full run record.

    A traced run writes its spans to ``out_dir/trace_<workload>.jsonl``.
    """
    begin = time.perf_counter()
    entries: List[Dict[str, Any]] = []
    traced: Optional[Dict[str, Any]] = None
    trace_path = out_dir / f"trace_{workload}.jsonl"
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        traced = repeat(workload, seed, True, smoke, trace_path)
    min_timed = MIN_REPEATS - (1 if trace else 0)
    while True:
        started = time.perf_counter()
        entries.append(repeat(workload, seed, False, smoke))
        now = time.perf_counter()
        last = now - started
        spent = now - begin
        # Wall-clock budget of the benchmark run itself, never of the
        # code under test.
        if len(entries) >= min_timed and (  # reprolint: disable=DET102
            spent + last > seconds or spent + last > HARD_STOP_S
        ):
            break

    everything = entries + ([traced] if traced is not None else [])
    failures: Dict[int, List[str]] = {
        i: repeat_failures(e) for i, e in enumerate(everything)
    }
    digests = sorted(
        {
            e["record"]["theta_sha256"]
            for e in everything if e["record"] is not None
        }
    )
    planned = specs.planned_updates(workload, smoke)
    attempted = planned * len(everything)
    failed = sum(planned for reasons in failures.values() if reasons)
    if len(digests) > 1:
        # Repeats of one seed disagree: none of them can be trusted.
        failed = attempted
    correct = failed == 0 and len(digests) == 1
    summary = end_to_end(entries)
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "calib_ref_s": calib.CALIB_REF_S,
        "probe_iters": calib.PROBE_ITERS,
        "repeats": len(entries),
        "elapsed_s": time.perf_counter() - begin,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": {str(i): r for i, r in failures.items() if r},
        "theta_sha256": digests,
        "end_to_end": summary,
        "entries": everything,
    }
    if traced is not None:
        record["per_layer"] = per_layer(traced, entries)
        record["trace_file"] = str(trace_path)
    return record


def result_line(record: Dict[str, Any], bench: Dict[str, Any]) -> Dict[str, Any]:
    """The object printed as a run's last stdout line."""
    if record["trace"]:
        values, catalogue = record.get("per_layer", {}), bench["per_layer"]
    else:
        values, catalogue = record["end_to_end"], bench["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    correct = record["correct"]
    for entry in catalogue:
        if entry["name"] not in values:
            correct = False
            continue
        metrics[entry["name"]] = {
            "value": values[entry["name"]], "unit": entry["unit"],
        }
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)


def _print_run(record: Dict[str, Any], line: Dict[str, Any]) -> None:
    print(
        f"{record['workload']} seed={record['seed']} "
        f"repeats={record['repeats']} trace={int(record['trace'])} "
        f"theta_sha256={','.join(d[:16] for d in record['theta_sha256'])}"
    )
    for name, metric in line["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for index, reasons in record["failures"].items():
        print(f"  repeat {index} failed: {'; '.join(reasons)}")


# ----------------------------------------------------------------------
# Every workload, interleaved (input for compare.py)
# ----------------------------------------------------------------------
def run_all(
    names: List[str], runs: int, seed: int, seconds: float, smoke: bool,
    bench: Dict[str, Any], out_dir: Path,
) -> Dict[str, Any]:
    """``runs`` timed runs per workload, round-robin, order reversed every
    other cycle; then one traced run per workload."""
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    traces: Dict[str, Dict[str, Any]] = {}
    records: List[Dict[str, Any]] = []
    for cycle in range(runs):
        order = names if cycle % 2 == 0 else list(reversed(names))
        for name in order:
            record = measure(
                name, seed + cycle, seconds, False, smoke, out_dir
            )
            line = result_line(record, bench)
            _print_run(record, line)
            results[name].append(dict(line, seed=seed + cycle))
            records.append(record)
    for name in names:
        record = measure(name, seed, seconds, True, smoke, out_dir)
        line = result_line(record, bench)
        _print_run(record, line)
        traces[name] = dict(line, seed=seed)
        records.append(record)
    return {
        "calib_ref_s": calib.CALIB_REF_S, "seconds": seconds,
        "smoke": smoke, "runs": results, "traced": traces,
        "records": records,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(specs.FULL))
    parser.add_argument("--all", action="store_true",
                        help="run every workload --runs times, interleaved")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks the harness, not the speed")
    parser.add_argument("--out", default=None,
                        help="where to write the full record (JSON); "
                        "trace files go next to it (default: "
                        "benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")

    problem = check_checkout()
    if problem is not None:
        print(f"bench_e2e: cannot run: {problem}", file=sys.stderr)
        return 2
    os.environ.update(calib.PINNED_ENV)
    bench = load_benchmark()

    if args.all:
        out = Path(args.out) if args.out else OUT_DIR / "all.json"
        names = [w["name"] for w in bench["workloads"]]
        payload = run_all(
            names, args.runs, args.seed, args.seconds, args.smoke, bench,
            out.parent,
        )
        _write_json(out, payload)
        ok = all(
            line["correct"]
            for lines in payload["runs"].values() for line in lines
        ) and all(line["correct"] for line in payload["traced"].values())
        print(json.dumps({"correct": ok, "out": str(out)}))
        # The records carry timings, but the flags read here are clock-free.
        return 0 if ok else 1  # reprolint: disable=DET102

    out = (
        Path(args.out) if args.out
        else OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    )
    record = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
        out.parent,
    )
    line = result_line(record, bench)
    record["result"] = line
    _write_json(out, record)
    _print_run(record, line)
    print(json.dumps(line))
    return 0 if line["correct"] else 1  # reprolint: disable=DET102


if __name__ == "__main__":
    raise SystemExit(main())
