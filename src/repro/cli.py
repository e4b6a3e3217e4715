"""Command-line interface: run the paper's pipelines without writing code.

Examples
--------
Train FedML on a synthetic federation and evaluate target adaptation::

    python -m repro.cli train --algorithm fedml --dataset synthetic \
        --nodes 30 --iterations 300 --t0 5 --alpha 0.05 --beta 0.05

Compare algorithms::

    python -m repro.cli train --algorithm fedavg --dataset mnist --iterations 200

Print workload statistics (Table I)::

    python -m repro.cli stats --dataset sent140 --nodes 100

Record telemetry (spans, per-round byte accounting) and summarize it::

    python -m repro.cli train --algorithm fedml --dataset synthetic \
        --telemetry-out run.jsonl
    python -m repro.cli report run.jsonl
    python -m repro.cli report run.jsonl --html dashboard.html

Gate benchmark results against the committed performance baselines
(non-zero exit on regression; re-baseline with ``--update``)::

    python -m repro.cli bench-check BENCH_engine.json BENCH_autodiff.json

Run the repo-specific linter and the autodiff graph sanitizer (both exit
non-zero on findings; rule catalog in ``docs/STATIC_ANALYSIS.md``)::

    python -m repro.cli lint --baseline analysis/baseline.json \
        src benchmarks examples
    python -m repro.cli check-graph --json

Audit a config's determinism contract end-to-end (runs it twice on one
executor and bisects the first diverging ``(round, block, node)`` from
the event log and the RNG ledger; ``docs/TESTING.md``)::

    python -m repro.cli check-determinism --algorithm fedml --nodes 10
    python -m repro.cli check-determinism --algorithm all --compare vectorized
    python -m repro.cli check-determinism --algorithm fedml \
        --plant-entropy block=1,node=3   # planted bug: exits 1, localized
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from .core import (
    ADMLConfig,
    FedAvg,
    FedAvgConfig,
    FederatedADML,
    FederatedMetaSGD,
    FederatedReptile,
    FedML,
    FedMLConfig,
    MetaSGDConfig,
    ReptileConfig,
    RobustFedML,
    RobustFedMLConfig,
    evaluate_adaptation,
)
from .core.fedprox import FedProx, FedProxConfig
from .engine import EngineOptions, Executor, VectorizedExecutor
from .faults import FaultPlan, ResiliencePolicy, RunInterrupted
from .data import (
    FederatedDataset,
    MnistLikeConfig,
    Sent140LikeConfig,
    SyntheticConfig,
    generate_mnist_like,
    generate_sent140_like,
    generate_synthetic,
)
from .metrics import format_table, target_splits
from .nn import EmbeddingClassifier, LogisticRegression, Model
from .obs import (
    JsonlFileSink,
    StdoutSink,
    Telemetry,
    load_records,
    render_report,
    summarize,
)

__all__ = ["main", "build_parser"]


def _build_dataset(args: argparse.Namespace) -> FederatedDataset:
    if args.dataset == "synthetic":
        return generate_synthetic(
            SyntheticConfig(
                alpha=args.synthetic_alpha,
                beta=args.synthetic_beta,
                num_nodes=args.nodes,
                seed=args.data_seed,
            )
        )
    if args.dataset == "mnist":
        return generate_mnist_like(
            MnistLikeConfig(num_nodes=args.nodes, seed=args.data_seed)
        )
    if args.dataset == "sent140":
        return generate_sent140_like(
            Sent140LikeConfig(num_nodes=args.nodes, seed=args.data_seed)
        )
    raise ValueError(f"unknown dataset '{args.dataset}'")


def _build_model(args: argparse.Namespace, federated: FederatedDataset) -> Model:
    if args.dataset == "synthetic":
        return LogisticRegression(60, 10)
    if args.dataset == "mnist":
        return LogisticRegression(64, 10)
    return EmbeddingClassifier(
        vocab_size=federated.metadata["vocab_size"],
        embed_dim=16,
        seq_len=federated.metadata["seq_len"],
        hidden_dims=(32, 16),
        num_classes=2,
        batch_norm=True,
        embedding_seed=0,
    )


def _build_telemetry(args: argparse.Namespace) -> Optional[Telemetry]:
    """Construct the run's collector from ``--telemetry-out`` (default off)."""
    path = getattr(args, "telemetry_out", None)
    if not path:
        return None
    sink = StdoutSink() if path == "-" else JsonlFileSink(path)
    telemetry = Telemetry(sink=sink)
    config = {
        k: v
        for k, v in vars(args).items()
        if k != "func" and isinstance(v, (str, int, float, bool, type(None)))
    }
    telemetry.emit_metadata(config=config, seed=getattr(args, "seed", None))
    return telemetry


def _build_executor(kind: str) -> Optional[Executor]:
    """Map an ``--executor`` choice to an engine executor (default serial)."""
    return VectorizedExecutor() if kind == "vectorized" else None


def _build_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Parse ``--faults``/``--faults-seed``; ``ValueError`` on a bad spec."""
    spec = getattr(args, "faults", None)
    if spec is None:
        return None
    return FaultPlan.from_spec(spec, seed=getattr(args, "faults_seed", 0))


def _build_engine_options(
    args: argparse.Namespace,
) -> Optional[EngineOptions]:
    """Map ``--faults``/``--checkpoint``/``--resume`` to engine options."""
    faults_spec = getattr(args, "faults", None)
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", False)
    if faults_spec is None and checkpoint is None and not resume:
        return None
    plan = _build_fault_plan(args)
    resilience = None
    if plan is not None:
        resilience = ResiliencePolicy(
            round_timeout_s=getattr(args, "round_timeout", None),
            min_participants=getattr(args, "min_participants", 1),
        )
    return EngineOptions(
        faults=plan,
        resilience=resilience,
        checkpoint_path=checkpoint,
        checkpoint_every=getattr(args, "checkpoint_every", 1),
    )


def _build_trainer(
    args: argparse.Namespace,
    model: Model,
    engine_options: Optional[EngineOptions],
    telemetry: Optional[Telemetry] = None,
    executor: Optional[Executor] = None,
):
    # Every algorithm routes through the round engine, so they all accept
    # the same telemetry/executor/fault plumbing.
    common = dict(
        telemetry=telemetry,
        executor=executor,
        engine_options=engine_options,
    )
    if args.algorithm == "fedml":
        return FedML(
            model,
            FedMLConfig(
                alpha=args.alpha, beta=args.beta, t0=args.t0,
                total_iterations=args.iterations, k=args.k,
                first_order=args.first_order, eval_every=args.eval_every,
                seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "robust-fedml":
        return RobustFedML(
            model,
            RobustFedMLConfig(
                alpha=args.alpha, beta=args.beta, t0=args.t0,
                total_iterations=args.iterations, k=args.k,
                lam=args.lam, nu=args.nu, ta=args.ta, n0=args.n0,
                r_max=args.r_max, eval_every=args.eval_every, seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "fedavg":
        return FedAvg(
            model,
            FedAvgConfig(
                learning_rate=args.beta, t0=args.t0,
                total_iterations=args.iterations, eval_every=args.eval_every,
                seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "fedprox":
        return FedProx(
            model,
            FedProxConfig(
                learning_rate=args.beta, mu_prox=args.mu_prox, t0=args.t0,
                total_iterations=args.iterations, eval_every=args.eval_every,
                seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "reptile":
        return FederatedReptile(
            model,
            ReptileConfig(
                inner_lr=args.alpha, outer_lr=args.beta, t0=args.t0,
                total_iterations=args.iterations, k=args.k,
                eval_every=args.eval_every, seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "meta-sgd":
        return FederatedMetaSGD(
            model,
            MetaSGDConfig(
                alpha_init=args.alpha, beta=args.beta, t0=args.t0,
                total_iterations=args.iterations, k=args.k,
                eval_every=args.eval_every, seed=args.seed,
            ),
            **common,
        )
    if args.algorithm == "adml":
        return FederatedADML(
            model,
            ADMLConfig(
                alpha=args.alpha, beta=args.beta, t0=args.t0,
                total_iterations=args.iterations, k=args.k,
                epsilon=args.epsilon, eval_every=args.eval_every,
                seed=args.seed,
            ),
            **common,
        )
    raise ValueError(f"unknown algorithm '{args.algorithm}'")


def _cmd_stats(args: argparse.Namespace) -> int:
    federated = _build_dataset(args)
    stats = federated.statistics()
    if args.json:
        print(json.dumps({"name": federated.name, **stats}))
    else:
        print(
            format_table(
                ["Dataset", "Nodes", "Samples mean", "Samples std"],
                [
                    [
                        federated.name,
                        int(stats["nodes"]),
                        stats["samples_mean"],
                        stats["samples_std"],
                    ]
                ],
            )
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        engine_options = _build_engine_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    federated = _build_dataset(args)
    model = _build_model(args, federated)
    sources, targets = federated.split_sources_targets(
        args.source_fraction, np.random.default_rng(args.split_seed)
    )
    telemetry = _build_telemetry(args)
    executor = _build_executor(args.executor)
    trainer = _build_trainer(args, model, engine_options, telemetry, executor)

    from .autodiff import fastpath

    # --no-fastpath holds through fit() and the adaptation table alike.
    switch = fastpath.disabled() if args.no_fastpath else nullcontext()
    fastpath.reset_stats()
    with switch:
        try:
            if args.profile_tape:
                from .autodiff.profile import profile_ops

                with profile_ops() as tape_profile:
                    result = trainer.fit(
                        federated, sources, resume=args.resume
                    )
                if telemetry is not None:
                    tape_profile.to_registry(telemetry.registry)
                if not args.json:
                    print(tape_profile.summary(top=10))
            else:
                result = trainer.fit(federated, sources, resume=args.resume)
        except RunInterrupted as interrupted:
            # A plan-scheduled kill: report where the run died and how to
            # pick it back up, with a distinct exit code so harnesses can
            # detect it.
            if telemetry is not None:
                telemetry.close()
            print(f"run interrupted: {interrupted}", file=sys.stderr)
            if interrupted.checkpoint_path:
                print(
                    "resume with: --resume --checkpoint "
                    f"{interrupted.checkpoint_path}",
                    file=sys.stderr,
                )
            return 3
        if telemetry is not None:
            fastpath.to_registry(telemetry.registry)

        splits = target_splits(federated, targets, k=args.k)
        curve = evaluate_adaptation(
            model, result.params, splits, alpha=args.alpha,
            max_steps=args.adapt_steps,
        )

    history = result.history
    loss_key = (
        "global_meta_loss"
        if history.series("global_meta_loss")
        else "global_loss"
    )
    losses = history.series(loss_key)

    payload = {
        "algorithm": args.algorithm,
        "dataset": federated.name,
        "sources": len(sources),
        "targets": len(splits),
        "initial_loss": losses[0] if losses else None,
        "final_loss": losses[-1] if losses else None,
        "uplink_bytes": result.platform.comm_log.uplink_bytes,
        "adaptation_losses": curve.losses,
        "adaptation_accuracies": curve.accuracies,
    }
    if telemetry is not None:
        telemetry.close()
    if args.json:
        print(json.dumps(payload))
        return 0

    print(f"{args.algorithm} on {federated.name}: "
          f"{len(sources)} sources, {len(splits)} targets")
    if losses:
        print(f"training loss: {losses[0]:.4f} -> {losses[-1]:.4f}")
    print(f"uplink traffic: {payload['uplink_bytes'] / 1e6:.2f} MB")
    rows = [
        [step, curve.losses[step], curve.accuracies[step]]
        for step in range(len(curve.losses))
    ]
    print(format_table(["adapt steps", "target loss", "target acc"], rows))
    if telemetry is not None and args.telemetry_out != "-":
        print(f"telemetry written to {args.telemetry_out}")
    return 0


def _cmd_fleet_sim(args: argparse.Namespace) -> int:
    """Event-driven fleet run: lazy registry + buffered aggregation."""
    from .engine.strategies import MetaStrategy, SgdStrategy
    from .federated.fleet import (
        FleetConfig,
        FleetSimulator,
        SyntheticShardFactory,
    )
    from .nn import LogisticRegression

    try:
        plan = _build_fault_plan(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shards = SyntheticShardFactory(seed=args.seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    if args.algorithm == "fedavg":
        strategy = SgdStrategy(
            model,
            FedAvgConfig(
                learning_rate=args.beta, t0=args.local_steps,
                total_iterations=args.rounds * args.local_steps,
                eval_every=args.eval_every, seed=args.seed,
            ),
        )
    else:
        strategy = MetaStrategy(
            model,
            FedMLConfig(
                alpha=args.alpha, beta=args.beta, t0=args.local_steps,
                total_iterations=args.rounds * args.local_steps,
                k=shards.k, eval_every=args.eval_every, seed=args.seed,
            ),
        )
    config = FleetConfig(
        fleet_size=args.fleet_size,
        sampled_per_round=args.sampled,
        rounds=args.rounds,
        local_steps=args.local_steps,
        buffer_size=args.buffer_size,
        staleness_alpha=args.staleness_alpha,
        seed=args.seed,
        round_timeout_s=args.round_timeout,
        eval_every=args.eval_every,
        eval_sample=args.eval_sample,
    )
    telemetry = _build_telemetry(args)
    simulator = FleetSimulator(
        strategy,
        config,
        shards=shards,
        telemetry=telemetry,
        faults=plan,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
    )
    try:
        result = simulator.run(resume=args.resume)
    except RunInterrupted as interrupted:
        if telemetry is not None:
            telemetry.close()
        print(f"run interrupted: {interrupted}", file=sys.stderr)
        if interrupted.checkpoint_path:
            print(
                "resume with: --resume --checkpoint "
                f"{interrupted.checkpoint_path}",
                file=sys.stderr,
            )
        return 3

    loss_key = (
        "global_meta_loss"
        if result.history.series("global_meta_loss")
        else "global_loss"
    )
    losses = result.history.series(loss_key)
    payload = {
        "algorithm": args.algorithm,
        "fleet_size": args.fleet_size,
        "sampled_per_round": args.sampled,
        "rounds": result.rounds_completed,
        "aggregations": result.server_version,
        "updates_aggregated": result.updates_aggregated,
        "resident_peak": result.resident_peak,
        "resident_bound": args.sampled + config.effective_buffer,
        "sim_clock_s": result.sim_clock_s,
        "final_loss": losses[-1] if losses else None,
        "uplink_bytes": result.comm_log.uplink_bytes,
        "downlink_bytes": result.comm_log.downlink_bytes,
    }
    if telemetry is not None:
        telemetry.close()
    if args.json:
        print(json.dumps(payload))
        return 0
    print(
        f"fleet-sim {args.algorithm}: {args.fleet_size} registered, "
        f"{args.sampled} sampled/round, {result.rounds_completed} rounds, "
        f"{result.server_version} aggregations"
    )
    print(
        f"resident-node peak: {result.resident_peak} "
        f"(bound {payload['resident_bound']})"
    )
    if losses:
        print(f"{loss_key}: {losses[0]:.4f} -> {losses[-1]:.4f}")
    print(f"simulated clock: {result.sim_clock_s:.1f} s")
    print(f"uplink traffic: {payload['uplink_bytes'] / 1e6:.2f} MB")
    if telemetry is not None and args.telemetry_out != "-":
        print(f"telemetry written to {args.telemetry_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_paths, load_baseline

    baseline = None
    baseline_path = getattr(args, "baseline", None)
    if baseline_path:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
    telemetry = _build_telemetry(args)
    start = time.perf_counter()
    report = lint_paths(args.paths, baseline=baseline)
    elapsed = time.perf_counter() - start
    if telemetry is not None:
        registry = telemetry.registry
        registry.gauge("analysis_lint_seconds").set(elapsed)
        registry.counter("analysis_files_scanned_total").inc(
            report.files_scanned
        )
        for rule_id, count in report.by_rule().items():
            registry.counter("analysis_findings_total", rule=rule_id).inc(
                count
            )
        telemetry.close()
    if args.json:
        print(report.render_json())
    else:
        print(report.render_text())
        if telemetry is not None and args.telemetry_out != "-":
            print(f"telemetry written to {args.telemetry_out}")
    return 0 if report.ok else 1


def _cmd_check_graph(args: argparse.Namespace) -> int:
    from .analysis import run_graph_checks

    telemetry = _build_telemetry(args)
    start = time.perf_counter()
    report = run_graph_checks()
    elapsed = time.perf_counter() - start
    if telemetry is not None:
        registry = telemetry.registry
        registry.gauge("analysis_check_graph_seconds").set(elapsed)
        registry.gauge("analysis_ops_audited").set(report.ops_audited)
        for section, seconds in report.section_seconds.items():
            registry.gauge(
                "analysis_section_seconds", section=section
            ).set(seconds)
        for finding in report.findings:
            registry.counter(
                "analysis_findings_total", rule=finding.rule_id
            ).inc()
        telemetry.close()
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.render_text())
        if telemetry is not None and args.telemetry_out != "-":
            print(f"telemetry written to {args.telemetry_out}")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        records = load_records(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "html", None):
        from .obs.dashboard import render_dashboard
        from .obs.events import RunRecord

        run = RunRecord.from_records(records)
        page = render_dashboard(run, title=f"repro run — {args.path}")
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        print(f"dashboard written to {args.html}")
        return 0
    summary = summarize(records)
    if args.json:
        print(
            json.dumps(
                {
                    "records": len(records),
                    "meta": summary.meta,
                    "spans": summary.spans,
                    "counters": summary.counters,
                    "gauges": summary.gauges,
                    "histograms": summary.histograms,
                    "series": [
                        {
                            "name": s["name"],
                            "labels": s.get("labels", {}),
                            "points": len(s.get("values", [])),
                        }
                        for s in summary.series
                    ],
                }
            )
        )
        return 0
    print(render_report(summary))
    return 0


_ALL_ALGORITHMS = (
    "fedml", "robust-fedml", "fedavg", "fedprox", "reptile", "meta-sgd",
    "adml",
)


def _parse_plant_spec(spec: str) -> "tuple[int, int]":
    """``block=B,node=N`` -> (B, N); raises ValueError on malformed input."""
    fields = {}
    for part in spec.split(","):
        key, _, value = part.strip().partition("=")
        fields[key.strip()] = value.strip()
    try:
        return int(fields["block"]), int(fields["node"])
    except (KeyError, ValueError) as exc:
        raise ValueError(
            f"malformed --plant-entropy spec '{spec}' "
            "(expected 'block=B,node=N')"
        ) from exc


def _determinism_run(
    args: argparse.Namespace,
    algorithm: str,
    executor_kind: str,
    label: str,
    plant: "Optional[tuple[int, int]]" = None,
):
    """One instrumented training run; returns its RunFingerprint + ledger."""
    from .analysis.determinism import (
        EntropyPlanter,
        install_ledger,
        uninstall_ledger,
    )
    from .analysis.divergence import RunFingerprint
    from .obs.sink import MemorySink
    from .utils.serialization import params_fingerprint

    run_args = argparse.Namespace(**vars(args))
    run_args.algorithm = algorithm
    federated = _build_dataset(run_args)
    model = _build_model(run_args, federated)
    sources, _ = federated.split_sources_targets(
        run_args.source_fraction, np.random.default_rng(run_args.split_seed)
    )
    sink = MemorySink()
    telemetry = Telemetry(sink=sink, node_fingerprints=True)
    trainer = _build_trainer(
        run_args, model, _build_engine_options(run_args), telemetry,
        _build_executor(executor_kind),
    )
    if plant is not None:
        if not hasattr(trainer, "strategy"):
            raise ValueError(
                f"--plant-entropy is not supported for '{algorithm}'"
            )
        trainer.strategy = EntropyPlanter(trainer.strategy, *plant)
    # Both executors bind every node generator through
    # ``instrument_node_rng``, so the ledger sees every stream either way.
    ledger = install_ledger()
    try:
        result = trainer.fit(federated, sources)
    finally:
        uninstall_ledger()
    ledger.emit_events(telemetry.events)
    ledger.to_registry(telemetry.registry)
    telemetry.close()
    history_rows = []
    history = getattr(result, "history", None)
    if history is not None:
        for name in ("global_loss", "global_meta_loss"):
            values = history.series(name)
            if values:
                history_rows.append(
                    {"metric": name, "values": tuple(float(v) for v in values)}
                )
    fingerprint = RunFingerprint.from_records(
        sink.records,
        label=label,
        history=history_rows,
        final_params_fp=params_fingerprint(result.params),
    )
    return fingerprint, ledger


def _cmd_check_determinism(args: argparse.Namespace) -> int:
    from .analysis.divergence import compare_runs

    plant = None
    if args.plant_entropy:
        try:
            plant = _parse_plant_spec(args.plant_entropy)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    algorithms = (
        list(_ALL_ALGORITHMS) if args.algorithm == "all" else [args.algorithm]
    )
    mode = args.compare
    results = []
    failures = 0
    ledger_records: List[dict] = []
    for algorithm in algorithms:
        # Two runs on one executor must be bit-for-bit identical, RNG
        # ledger included.  Stacked fp math only promises tolerance-level
        # equality with serial, so runs are never compared across
        # executors here.
        first_fp, first_ledger = _determinism_run(
            args, algorithm, mode, f"{algorithm}/{mode}#1", plant=plant
        )
        rerun_fp, _ = _determinism_run(
            args, algorithm, mode, f"{algorithm}/{mode}#2", plant=plant
        )
        ledger_records.extend(
            {"type": "rng_ledger", "algorithm": algorithm, **entry}
            for entry in first_ledger.as_dicts()
        )
        point = compare_runs(first_fp, rerun_fp)
        results.append((algorithm, f"{mode}-vs-{mode}", point))
        if point is not None:
            failures += 1
    if args.ledger_out:
        with open(args.ledger_out, "w", encoding="utf-8") as handle:
            for record in ledger_records:
                handle.write(json.dumps(record) + "\n")
    if args.json:
        print(
            json.dumps(
                {
                    "ok": failures == 0,
                    "comparisons": [
                        {
                            "algorithm": algorithm,
                            "compare": compare_label,
                            "diverged": point is not None,
                            "divergence": None
                            if point is None
                            else {
                                "round": point.round,
                                "block": point.block,
                                "node": point.node,
                                "metric": point.metric,
                                "a": repr(point.value_a),
                                "b": repr(point.value_b),
                            },
                        }
                        for algorithm, compare_label, point in results
                    ],
                }
            )
        )
        return 1 if failures else 0
    for algorithm, compare_label, point in results:
        name = f"{algorithm} {compare_label}"
        if point is None:
            print(f"check-determinism: {name}: identical")
        else:
            print(f"check-determinism: {name}: {point.render()}")
    if args.ledger_out:
        print(f"rng ledger written to {args.ledger_out}")
    if failures:
        print(
            f"check-determinism: FAILED — {failures} diverging comparison(s)",
            file=sys.stderr,
        )
        return 1
    print("check-determinism: all comparisons identical")
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .obs.regress import run_gate

    failures, lines = run_gate(
        args.bench, args.baseline, update=args.update
    )
    for line in lines:
        print(line)
    if failures:
        print(
            f"bench-check: {len(failures)} regression(s) against "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Federated meta-learning (ICDCS 2020) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dataset", choices=["synthetic", "mnist", "sent140"],
            default="synthetic",
        )
        p.add_argument("--nodes", type=int, default=30)
        p.add_argument("--data-seed", type=int, default=0)
        p.add_argument("--synthetic-alpha", type=float, default=0.5)
        p.add_argument("--synthetic-beta", type=float, default=0.5)
        p.add_argument("--json", action="store_true", help="emit JSON")

    stats = sub.add_parser("stats", help="print workload statistics (Table I)")
    add_dataset_args(stats)
    stats.set_defaults(func=_cmd_stats)

    def add_algorithm_args(
        p: argparse.ArgumentParser, extra_choices: Optional[List[str]] = None
    ) -> None:
        p.add_argument(
            "--algorithm",
            choices=[
                "fedml", "robust-fedml", "fedavg", "fedprox", "reptile",
                "meta-sgd", "adml", *(extra_choices or []),
            ],
            default="fedml",
        )
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--beta", type=float, default=0.05)
        p.add_argument("--t0", type=int, default=5)
        p.add_argument("--iterations", type=int, default=200)
        p.add_argument("--k", type=int, default=5)
        p.add_argument("--eval-every", type=int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--split-seed", type=int, default=0)
        p.add_argument("--source-fraction", type=float, default=0.8)
        p.add_argument("--first-order", action="store_true")
        # Robust FedML knobs.
        p.add_argument("--lam", type=float, default=1.0)
        p.add_argument("--nu", type=float, default=1.0)
        p.add_argument("--ta", type=int, default=10)
        p.add_argument("--n0", type=int, default=7)
        p.add_argument("--r-max", type=int, default=2)
        # FedProx knob.
        p.add_argument("--mu-prox", type=float, default=0.1)
        # ADML knob.
        p.add_argument("--epsilon", type=float, default=0.1)

    train = sub.add_parser("train", help="train an algorithm and evaluate")
    add_dataset_args(train)
    add_algorithm_args(train)
    train.add_argument("--adapt-steps", type=int, default=5)
    # Execution.
    train.add_argument(
        "--executor", choices=["serial", "vectorized"],
        default="serial",
        help="run each node's local steps serially, or as stacked batched "
        "tapes (tolerance-equal to serial, bit-reproducible run-to-run)",
    )
    # Faults & resilience.
    train.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject a deterministic fault plan, e.g. "
        "'crash:rate=0.2;corrupt:rate=0.1,mode=nan;kill:block=3' "
        "(kinds: crash, drop, corrupt, delay, flaky, kill)",
    )
    train.add_argument(
        "--faults-seed", type=int, default=0,
        help="seed of the fault plan (same seed + spec = same faults)",
    )
    train.add_argument(
        "--round-timeout", type=float, default=None, metavar="SECONDS",
        help="simulated per-round deadline; slower updates are dropped as "
        "stragglers (requires --faults)",
    )
    train.add_argument(
        "--min-participants", type=int, default=1, metavar="N",
        help="never aggregate fewer than N updates (requires --faults)",
    )
    # Checkpoint / resume.
    train.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a checkpoint at aggregation boundaries to PATH",
    )
    train.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N aggregations (default: every one)",
    )
    train.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh "
        "(bit-identical to an uninterrupted run)",
    )
    # Observability.
    train.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="write telemetry JSONL to PATH ('-' for stdout); default off",
    )
    train.add_argument(
        "--profile-tape", action="store_true",
        help="profile autodiff op counts and per-op-type time during training",
    )
    train.add_argument(
        "--no-fastpath", action="store_true",
        help="run every gradient on the autodiff tape, through training "
        "and the adaptation table: no raw-VJP backward, no closed-form "
        "kernels; the kernels agree with the tape within 1e-12 relative, so "
        "printed values agree and final parameters differ in the last bits",
    )
    train.set_defaults(func=_cmd_train)

    fleet = sub.add_parser(
        "fleet-sim",
        help="event-driven fleet simulation: lazy node registry "
        "(O(sampled) memory), LinkModel-clocked completion events, "
        "synchronous or staleness-aware buffered aggregation",
    )
    fleet.add_argument("--fleet-size", type=int, default=100_000)
    fleet.add_argument(
        "--sampled", type=int, default=64,
        help="nodes sampled per round (default 64)",
    )
    fleet.add_argument("--rounds", type=int, default=10)
    fleet.add_argument("--local-steps", type=int, default=5)
    fleet.add_argument(
        "--algorithm", choices=["fedavg", "fedml"], default="fedavg"
    )
    fleet.add_argument("--alpha", type=float, default=0.05)
    fleet.add_argument("--beta", type=float, default=0.05)
    fleet.add_argument(
        "--buffer-size", type=int, default=None, metavar="N",
        help="flush the aggregation buffer every N delivered updates "
        "(FedBuff-style; default: synchronous, one flush per round)",
    )
    fleet.add_argument(
        "--staleness-alpha", type=float, default=0.5,
        help="staleness discount exponent d(tau) = (1+tau)^-alpha "
        "(0 disables discounting)",
    )
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument(
        "--round-timeout", type=float, default=None, metavar="SECONDS",
        help="simulated deadline per dispatch; slower nodes time out",
    )
    fleet.add_argument("--eval-every", type=int, default=1)
    fleet.add_argument(
        "--eval-sample", type=int, default=None, metavar="N",
        help="fixed seeded evaluation subset size (default min(32, sampled))",
    )
    fleet.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault plan (kinds: crash, drop, corrupt, "
        "delay, kill — flaky fails executor blocks and is rejected)",
    )
    fleet.add_argument("--faults-seed", type=int, default=0)
    fleet.add_argument("--checkpoint", default=None, metavar="PATH")
    fleet.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N rounds",
    )
    fleet.add_argument("--resume", action="store_true")
    fleet.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="write telemetry JSONL to PATH ('-' for stdout); default off",
    )
    fleet.add_argument("--json", action="store_true", help="emit JSON")
    fleet.set_defaults(func=_cmd_fleet_sim)

    report = sub.add_parser(
        "report", help="summarise a telemetry JSONL file into text tables"
    )
    report.add_argument("path", help="telemetry file written by --telemetry-out")
    report.add_argument("--json", action="store_true", help="emit JSON")
    report.add_argument(
        "--html", default=None, metavar="PATH",
        help="render a self-contained HTML dashboard to PATH instead of text",
    )
    report.set_defaults(func=_cmd_report)

    bench_check = sub.add_parser(
        "bench-check",
        help="gate benchmark JSON outputs against committed baselines "
        "(exits non-zero on regression; seeds missing baselines)",
    )
    bench_check.add_argument(
        "bench", nargs="+",
        help="benchmark result files (BENCH_engine.json, ...)",
    )
    bench_check.add_argument(
        "--baseline", default="benchmarks/baselines.json", metavar="PATH",
        help="committed baseline file (default: benchmarks/baselines.json)",
    )
    bench_check.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current results (intentional "
        "performance changes)",
    )
    bench_check.set_defaults(func=_cmd_bench_check)

    lint = sub.add_parser(
        "lint",
        help="run the repo-specific linter (reprolint) over files/directories",
    )
    lint.add_argument(
        "paths", nargs="+", help="files or directories to lint"
    )
    lint.add_argument("--json", action="store_true", help="emit JSON")
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="accepted-findings file (analysis/baseline.json): matching "
        "findings are counted as 'baselined' instead of failing the gate",
    )
    lint.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="record lint runtime/finding metrics as telemetry JSONL",
    )
    lint.set_defaults(func=_cmd_lint)

    check_det = sub.add_parser(
        "check-determinism",
        help="run a config twice on one executor and bisect any mismatch "
        "to the first diverging (round, block, node)",
    )
    add_dataset_args(check_det)
    add_algorithm_args(check_det, extra_choices=["all"])
    check_det.add_argument(
        "--compare",
        choices=["serial", "vectorized"],
        default="serial",
        help="the executor to run twice; the two runs must be bit-identical, "
        "RNG ledger included (default serial)",
    )
    check_det.add_argument(
        "--ledger-out", default=None, metavar="PATH",
        help="write the first run's RNG-stream ledger as JSONL",
    )
    check_det.add_argument(
        "--plant-entropy", default=None, metavar="block=B,node=N",
        help="test hook: inject an unseeded draw into the strategy at "
        "(block, node) — the checker must fail and name that coordinate",
    )
    check_det.set_defaults(func=_cmd_check_determinism)

    check_graph = sub.add_parser(
        "check-graph",
        help="audit autodiff graphs: double-backward coverage, shape/dtype "
        "replay, retained-graph leaks",
    )
    check_graph.add_argument("--json", action="store_true", help="emit JSON")
    check_graph.add_argument(
        "--telemetry-out", default=None, metavar="PATH",
        help="record sanitizer runtime metrics as telemetry JSONL",
    )
    check_graph.set_defaults(func=_cmd_check_graph)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Reports piped into `head` close stdout early; exit quietly.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
