"""Repo-specific static analysis and autodiff-graph sanitation.

Two cooperating layers keep the reproduction's correctness invariants
machine-checked:

``reprolint`` (static)
    An AST linter with repo-specific rules — RNG discipline, autodiff
    hygiene, telemetry purity, and the dataflow-powered DET determinism
    family — plus generic hygiene rules.  See :mod:`repro.analysis.engine`,
    :mod:`repro.analysis.dataflow` and the rule modules.

graph sanitizer (dynamic)
    Shape/dtype replay over recorded graphs, a double-backward audit that
    covers every registered op, and a retained-graph leak detector.  See
    :mod:`repro.analysis.sanitizer`.

determinism checker (dynamic)
    An RNG-stream ledger plus a run-twice divergence bisector
    (``repro check-determinism``) that localizes the first diverging
    ``(round, block, node, metric)``.  See
    :mod:`repro.analysis.determinism` and :mod:`repro.analysis.divergence`.

All surface through the CLI (``repro lint``, ``repro check-graph``,
``repro check-determinism``) and the tier-1 pytest gate; the rule catalog
lives in ``docs/STATIC_ANALYSIS.md``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .baseline import (
        Baseline,
        BaselineEntry,
        load_baseline,
        write_baseline,
    )
    from .dataflow import ModuleDataflow, Taint
    from .determinism import RngLedger, install_ledger, uninstall_ledger
    from .divergence import DivergencePoint, RunFingerprint, compare_runs
    from .engine import LintReport, iter_python_files, lint_paths, lint_source
    from .findings import Finding, Severity, Suppressions, parse_suppressions
    from .rules import REGISTRY, FileContext, LintRule, default_rules, register
    from .sanitizer import (
        CONSTANT_OPS,
        OP_SPECS,
        GraphReport,
        OpSpec,
        audit_double_backward,
        audited_op_names,
        detect_retained_graphs,
        replay_graph,
        run_graph_checks,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            ".baseline": (
                "Baseline", "BaselineEntry", "load_baseline", "write_baseline",
            ),
            ".dataflow": ("ModuleDataflow", "Taint"),
            ".determinism": (
                "RngLedger", "install_ledger", "uninstall_ledger",
            ),
            ".divergence": (
                "DivergencePoint", "RunFingerprint", "compare_runs",
            ),
            ".engine": (
                "LintReport", "iter_python_files", "lint_paths", "lint_source",
            ),
            ".findings": (
                "Finding", "Severity", "Suppressions", "parse_suppressions",
            ),
            ".rules": (
                "REGISTRY", "FileContext", "LintRule", "default_rules",
                "register",
            ),
            ".sanitizer": (
                "CONSTANT_OPS", "OP_SPECS", "GraphReport", "OpSpec",
                "audit_double_backward", "audited_op_names",
                "detect_retained_graphs", "replay_graph", "run_graph_checks",
            ),
        },
    )

__all__ = [
    "Finding",
    "Severity",
    "Suppressions",
    "parse_suppressions",
    "Baseline",
    "BaselineEntry",
    "load_baseline",
    "write_baseline",
    "ModuleDataflow",
    "Taint",
    "RngLedger",
    "install_ledger",
    "uninstall_ledger",
    "DivergencePoint",
    "RunFingerprint",
    "compare_runs",
    "FileContext",
    "LintRule",
    "REGISTRY",
    "register",
    "default_rules",
    "LintReport",
    "lint_paths",
    "lint_source",
    "iter_python_files",
    "OpSpec",
    "OP_SPECS",
    "CONSTANT_OPS",
    "audited_op_names",
    "replay_graph",
    "audit_double_backward",
    "detect_retained_graphs",
    "GraphReport",
    "run_graph_checks",
]
