"""DET1xx: determinism rules powered by the dataflow engine.

Every guarantee this repo makes — a serial run repeats bit for bit,
kill-and-resume ≡ uninterrupted, faults as pure functions of
``(seed, block, node)`` — is a determinism claim.  These rules enforce the contract statically:

* **DET101** unseeded entropy: module-level ``np.random.*`` / ``random.*``
  draws, ``os.urandom``, ``secrets``, ``uuid.uuid4`` and argless
  ``default_rng()`` anywhere outside ``utils/rng.py``.
* **DET102** wall-clock control flow: ``time.*`` / ``datetime.now`` values
  reaching a branch condition or an aggregation/strategy call.
* **DET103** unordered iteration: set-like values feeding reductions,
  order-materializing conversions, or list accumulation.
* **DET104** object identity in keys/sort orders: ``id()`` / ``hash()``
  results used as dict keys, set elements, or sort keys (they differ from
  run to run).

DET101/104 are structural; DET102/103 consult the per-file taint
analysis (:class:`repro.analysis.dataflow.ModuleDataflow`), so hazards are
tracked through assignments, calls, and local-function returns rather than
matched at the construction site only.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .dataflow import (
    IDENTITY,
    UNORDERED,
    WALLCLOCK,
    ModuleDataflow,
    Taint,
    dotted,
    scope_statements,
    stmt_expressions,
)
from .findings import Finding, Severity
from .rules import FileContext, LintRule, register

__all__ = [
    "UnseededEntropyRule",
    "WallClockControlFlowRule",
    "UnorderedIterationRule",
    "IdentityOrderRule",
]

#: File suffixes exempt from DET101: the seeded-stream factory itself.
_RNG_FACTORY_SUFFIX = ("utils", "rng.py")

#: Call names that are order-sensitive sinks for DET103.
_REDUCTION_SINKS = frozenset({"sum", "fsum", "reduce", "prod", "accumulate"})
_MATERIALIZING_SINKS = frozenset({"list", "tuple"})
_APPEND_METHODS = frozenset({"append", "extend", "insert"})

#: Aggregation/strategy entry points: wall-clock values must not reach them.
_AGGREGATION_SINKS = frozenset(
    {
        "aggregate",
        "on_aggregate",
        "local_step",
        "meta_gradient",
        "select",
        "broadcast",
        "filter_updates",
    }
)


def _first_origin(taint: Taint, label: str) -> str:
    line = taint.origin(label)
    return f" (introduced at line {line})" if line else ""


def _stmt_expr_walk(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Every expression node owned by ``stmt``, visited exactly once."""
    for root in stmt_expressions(stmt):
        yield from ast.walk(root)


@register
class UnseededEntropyRule(LintRule):
    """DET101: entropy no config seed controls breaks replayability."""

    id = "DET101"
    title = "unseeded-entropy"
    severity = Severity.ERROR
    hint = (
        "draw from a seeded stream (utils.rng.RngFactory or "
        "np.random.default_rng(seed)) so the value replays under --seed"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path.parts[-2:] == _RNG_FACTORY_SUFFIX:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and ModuleDataflow.is_entropy_call(
                node
            ):
                name = ".".join(dotted(node.func)) or "call"
                yield self.finding(
                    ctx,
                    node,
                    f"'{name}(...)' draws entropy outside any seeded stream",
                )


@register
class WallClockControlFlowRule(LintRule):
    """DET102: wall-clock values must not steer training decisions."""

    id = "DET102"
    title = "wallclock-control-flow"
    severity = Severity.ERROR
    hint = (
        "use the simulated clock (fl_sim_clock_seconds) or a config "
        "parameter; wall-clock reads belong in telemetry only"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        df = ctx.dataflow()
        for scope in df.scopes:
            env = scope.env
            for stmt in scope_statements(scope.node):
                test: Optional[ast.expr] = None
                if isinstance(stmt, (ast.If, ast.While)):
                    test = stmt.test
                elif isinstance(stmt, ast.Assert):
                    test = stmt.test
                if test is not None:
                    taint = df.expr_taint(test, env)
                    if taint.has(WALLCLOCK):
                        yield self.finding(
                            ctx,
                            test,
                            "branch condition depends on the wall clock"
                            + _first_origin(taint, WALLCLOCK),
                        )
                for node in _stmt_expr_walk(stmt):
                    if isinstance(node, ast.IfExp):
                        taint = df.expr_taint(node.test, env)
                        if taint.has(WALLCLOCK):
                            yield self.finding(
                                ctx,
                                node,
                                "conditional expression depends on the wall "
                                "clock" + _first_origin(taint, WALLCLOCK),
                            )
                    elif isinstance(node, ast.Call):
                        parts = dotted(node.func)
                        if not parts or parts[-1] not in _AGGREGATION_SINKS:
                            continue
                        for arg in [
                            *node.args,
                            *[kw.value for kw in node.keywords],
                        ]:
                            taint = df.expr_taint(arg, env)
                            if taint.has(WALLCLOCK):
                                yield self.finding(
                                    ctx,
                                    arg,
                                    f"wall-clock-derived value reaches "
                                    f"'{parts[-1]}(...)'"
                                    + _first_origin(taint, WALLCLOCK),
                                )


@register
class UnorderedIterationRule(LintRule):
    """DET103: set iteration order must never shape a numeric result."""

    id = "DET103"
    title = "unordered-iteration"
    severity = Severity.ERROR
    hint = (
        "iterate sorted(...) (or key by node_id) before reducing or "
        "materializing; membership tests and len() are always safe"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        df = ctx.dataflow()
        for scope in df.scopes:
            env = scope.env
            for stmt in scope_statements(scope.node):
                if isinstance(stmt, ast.AugAssign) and not isinstance(
                    stmt.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
                ):
                    # Accumulation order matters for float math; set-algebra
                    # augments (|=, &=, ^=) stay order-independent.
                    taint = df.expr_taint(stmt.value, env)
                    if taint.has(UNORDERED):
                        yield self.finding(
                            ctx,
                            stmt,
                            "accumulates a value drawn from an unordered "
                            "collection" + _first_origin(taint, UNORDERED),
                        )
                for node in _stmt_expr_walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    parts = dotted(node.func)
                    if not parts:
                        continue
                    sink: Optional[str] = None
                    if len(parts) == 1 and parts[0] in _REDUCTION_SINKS:
                        sink = "order-sensitive reduction"
                    elif len(parts) == 1 and parts[0] in _MATERIALIZING_SINKS:
                        sink = "order-materializing conversion"
                    elif (
                        len(parts) >= 2
                        and parts[-1] in _REDUCTION_SINKS
                    ):
                        sink = "order-sensitive reduction"
                    elif len(parts) >= 2 and parts[-1] in _APPEND_METHODS:
                        sink = "list accumulation"
                    if sink is None:
                        continue
                    for arg in node.args:
                        inner = (
                            arg.value if isinstance(arg, ast.Starred) else arg
                        )
                        taint = df.expr_taint(inner, env)
                        if taint.has(UNORDERED):
                            yield self.finding(
                                ctx,
                                node,
                                f"{sink} '{parts[-1]}(...)' consumes an "
                                "unordered collection"
                                + _first_origin(taint, UNORDERED),
                            )
                            break


@register
class IdentityOrderRule(LintRule):
    """DET104: ``id()``/``hash()`` keys differ from run to run."""

    id = "DET104"
    title = "identity-key"
    severity = Severity.ERROR
    hint = (
        "key by a stable domain id (node_id, name) instead of id()/hash(); "
        "identity keys differ from run to run"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_autodiff:
            # The tape walks graphs keyed by object identity on purpose:
            # those keys never outlive the backward pass that built them.
            return
        df = ctx.dataflow()
        for scope in df.scopes:
            env = scope.env
            for stmt in scope_statements(scope.node):
                yield from self._check_stmt(ctx, df, env, stmt)

    def _check_stmt(
        self,
        ctx: FileContext,
        df: ModuleDataflow,
        env: dict,
        stmt: ast.stmt,
    ) -> Iterator[Finding]:
        def identity(expr: ast.expr) -> bool:
            return df.expr_taint(expr, env).has(IDENTITY)

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript) and identity(
                    target.slice
                ):
                    yield self.finding(
                        ctx, target, "id()/hash() value used as a mapping key"
                    )
        for node in _stmt_expr_walk(stmt):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and identity(key):
                        yield self.finding(
                            ctx, key, "id()/hash() value used as a dict key"
                        )
            elif isinstance(node, (ast.Set, ast.SetComp)):
                element = (
                    node.elt if isinstance(node, ast.SetComp) else None
                )
                elements = [element] if element is not None else node.elts  # type: ignore[union-attr]
                for elt in elements:
                    if identity(elt):
                        yield self.finding(
                            ctx,
                            elt,
                            "id()/hash() value stored as a set element",
                        )
            elif isinstance(node, ast.DictComp):
                if identity(node.key):
                    yield self.finding(
                        ctx, node.key, "id()/hash() value used as a dict key"
                    )
            elif isinstance(node, ast.Call):
                parts = dotted(node.func)
                if parts and parts[-1] in ("setdefault",) and node.args:
                    if identity(node.args[0]):
                        yield self.finding(
                            ctx,
                            node.args[0],
                            "id()/hash() value used as a mapping key",
                        )
                elif parts and parts[-1] == "add" and node.args:
                    if identity(node.args[0]):
                        yield self.finding(
                            ctx,
                            node.args[0],
                            "id()/hash() value stored as a set element",
                        )
                elif parts and parts[-1] in ("sorted", "sort", "min", "max"):
                    for kw in node.keywords:
                        if kw.arg != "key":
                            continue
                        key_fn = kw.value
                        if isinstance(key_fn, ast.Lambda) and identity(
                            key_fn.body
                        ):
                            yield self.finding(
                                ctx,
                                key_fn,
                                "sort key built from id()/hash() gives a "
                                "process-dependent order",
                            )
