"""One repeat of one workload, in a fresh process.

``bench_e2e.py`` spawns this script once per repeat so each repeat pays
what a CLI user pays: a cold interpreter, cold plan caches, a fresh
import.  It prints one JSON record as its last stdout line::

    python3 benchmarks/e2e/child.py --workload fedml_synth --seed 0

``setup_s`` runs from the first statement below — before ``import
repro`` — to the call of ``fit()`` / ``run()``; ``train_s`` is that call.
With ``--trace 1`` the run is additionally wrapped by ``layer_trace`` and
the record carries the per-layer metrics; the spans go to
``--trace-out``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _import_repro() -> None:
    """Put the checkout's ``src`` first and refuse any other ``repro``."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    location = Path(repro.__file__).resolve()
    if src not in location.parents:
        raise SystemExit(f"imported repro from {location}, not from {src}")


def layer_metrics(
    tracer: Any,
    root: int,
    fastpath_delta: Dict[str, int],
    profiler: Any,
    extras: Dict[str, float],
) -> Dict[str, float]:
    """The per-layer metric set of ``BENCHMARK.json`` from one traced run."""
    from layer_trace import LAYERS, layer_breakdown

    breakdown = layer_breakdown(tracer.spans, root)
    inclusive = breakdown["inclusive_s"]
    calls = breakdown["calls"]
    metrics: Dict[str, float] = {}
    timed_names = {
        "autodiff": ("grad_hvp", "grad"),
        "maml": ("meta_gradient", "inner_adapt", "meta_loss"),
        "strategies": (
            "local_step", "local_block_vectorized", "evaluate", "on_block_end",
        ),
        "attacks": ("wasserstein_ascent",),
        "engine": ("run_block",),
        "platform": ("aggregate",),
        "data": ("shard_make",),
        "fleet": ("materialize", "evict", "flush", "select_ids"),
    }
    for layer, names in timed_names.items():
        for name in names:
            metrics[f"{layer}.{name}_s"] = inclusive.get(name, 0.0)
            metrics[f"{layer}.{name}_calls"] = calls.get(name, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = breakdown["self_s"].get(layer, 0.0)
    hits = fastpath_delta.get("plan_hits", 0)
    lookups = hits + fastpath_delta.get("plan_misses", 0)
    metrics.update(
        {
            "autodiff.graph_walks": float(getattr(profiler, "graph_walks", 0)),
            "autodiff.walked_nodes": float(
                getattr(profiler, "walked_nodes", 0)
            ),
            "autodiff.tape_nodes": float(getattr(profiler, "tape_length", 0)),
            # Inclusive op times, summed over op types that record tape
            # nodes (composites record none, so are not counted twice).
            "autodiff.forward_op_s": sum(
                s.seconds for s in profiler.op_stats.values() if s.calls
            ),
            "autodiff.plan_hit_ratio": hits / lookups if lookups else 0.0,
            "autodiff.closure_vjp_calls": float(
                fastpath_delta.get("closure_vjp_calls", 0)
            ),
            "autodiff.hot_allocations": float(
                fastpath_delta.get("hot_allocations", 0)
            ),
            "autodiff.compiled_runs": float(
                fastpath_delta.get("compiled_runs", 0)
            ),
        }
    )
    metrics.update(extras)
    return metrics


def _summarize(segs: List[Dict[str, float]]) -> Dict[str, float]:
    """Raw and normalized total of consecutive segments."""
    raw = sum(seg["raw_s"] for seg in segs)
    norm = sum(seg["norm_s"] for seg in segs)
    return {
        "raw_s": raw,
        "norm_s": norm,
        "calib_s": statistics.mean(seg["calib_s"] for seg in segs),
        "scale": norm / raw if raw > 0 else 1.0,
    }


def run(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy  # noqa: F401  (part of set-up: repro imports it too)

    import calib

    log = calib.ProbeLog()
    calib.probe(10)  # first-call warm-up, outside every segment
    log.take()
    _import_repro()
    import specs
    import workloads
    from layer_trace import Tracer

    from repro.autodiff import fastpath, profile_ops

    tracer: Optional[Tracer] = Tracer() if args.trace else None
    hooks = workloads.Hooks(log, tracer)
    job = workloads.build(args.workload, args.seed, args.smoke, hooks)

    root: Any = nullcontext()
    profiling: Any = nullcontext()
    if tracer is not None:
        tracer.install_module_wraps()
        for obj, method, name, layer in job.trace_methods:
            if hasattr(obj, method):
                tracer.wrap_method(obj, method, name, layer)
        root = tracer.span(job.root_name, job.root_layer)
        profiling = profile_ops()
    fastpath_before = fastpath.stats().as_dict()

    first_fit_probe = len(log.probes)
    log.take()
    with profiling as profiler, root:
        result = job.train()
    log.take()
    fastpath_delta = fastpath.stats().delta_since(fastpath_before)
    fit_segs = calib.segments(log.probes[first_fit_probe:])

    # Set-up: child start to the first probe, and between it and the probe
    # opening the fit; normalized by the mean of those two probes.
    a_s, a_e = log.probes[0]
    b_s, b_e = log.probes[first_fit_probe]
    setup_raw = (a_s - _START) + (b_s - a_e)
    setup_scale = calib.CALIB_REF_S / (((a_e - a_s) + (b_e - b_s)) / 2.0)
    # Engine marks close a round (after its aggregation); fleet marks open
    # one (at sampling), so the segment before the first fleet mark is
    # initialization and the one after the last engine mark is the tail.
    marked = hooks.rounds_marked
    if job.kind == "fleet":
        round_segs = fit_segs[1:] if marked else []
    else:
        round_segs = fit_segs[:marked]

    params = result.params
    first_adapt_probe = len(log.probes) - 1
    accuracies: List[float] = []
    for _ in range(specs.ADAPT_REPEATS):
        accuracies = job.adapt(params)
        log.take()
    adapt_segs = calib.segments(log.probes[first_adapt_probe:])

    loss_series = workloads.losses(result.history)
    uplink, downlink = workloads.comm_bytes(job, result)
    checks = {
        "theta_finite": workloads.theta_finite(params),
        "loss_finite": bool(loss_series)
        and all(math.isfinite(v) for v in loss_series),
        "loss_decreased": len(loss_series) >= 2
        and loss_series[-1] < loss_series[0],
        "target_acc_finite": all(math.isfinite(a) for a in accuracies),
    }
    train = _summarize(fit_segs)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "setup": {
            "raw_s": setup_raw, "scale": setup_scale,
            "norm_s": setup_raw * setup_scale,
        },
        "train": train,
        "rounds_raw_s": [seg["raw_s"] for seg in round_segs],
        "rounds_s": [seg["norm_s"] for seg in round_segs],
        "adapt_raw_s": statistics.median(seg["raw_s"] for seg in adapt_segs),
        "adapt_s": statistics.median(seg["norm_s"] for seg in adapt_segs),
        "probes": len(log.probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "initial_loss": loss_series[0] if loss_series else None,
        "final_loss": loss_series[-1] if loss_series else None,
        "target_acc": accuracies[1],
        "theta_sha256": workloads.theta_digest(params),
        "updates": specs.planned_updates(args.workload, args.smoke),
        "uplink_bytes": uplink,
        "downlink_bytes": downlink,
    }
    if job.resident_bound is not None:
        record["resident_peak"] = int(result.resident_peak)
        record["resident_bound"] = int(job.resident_bound)
        checks["resident_bounded"] = result.resident_peak <= job.resident_bound
    record["checks"] = checks

    if tracer is not None:
        from layer_trace import find_root

        root_index = find_root(tracer.spans, job.root_name)
        assert root_index is not None
        generate = find_root(tracer.spans, "generate")
        extras = {
            "data.generate_s": (
                tracer.spans[generate][3] - tracer.spans[generate][2]
                if generate is not None else 0.0
            ),
            "platform.uplink_bytes": float(uplink),
            "platform.downlink_bytes": float(downlink),
            "fleet.resident_peak": float(record.get("resident_peak", 0)),
        }
        layers = layer_metrics(
            tracer, root_index, fastpath_delta, profiler, extras
        )
        # Same normalization as train_s, so shares of it add up.
        record["layers"] = {
            name: value * train["scale"] if name.endswith("_s") else value
            for name, value in layers.items()
        }
        record["spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = run(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
