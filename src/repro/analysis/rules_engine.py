"""Round-engine discipline rules.

The engine refactor centralized the federated round loop — ``T0`` local
steps, ``platform.aggregate``, broadcast — in :class:`repro.engine.RoundEngine`.
Hand-rolling that pattern elsewhere forfeits participation sampling,
non-participant resync, telemetry spans, and the executor layer, and it is
exactly how the pre-engine algorithms drifted apart (three of seven had
observability, four did not).  ENG001 keeps the loop in one place:

* direct calls to ``<...>.platform.aggregate(...)`` are flagged — go
  through ``RoundEngine.fit`` (the engine's own call sites carry
  ``# reprolint: disable=ENG001``);
* ``for t in range(...)`` loops that test ``t % <...>.t0`` are flagged as
  hand-rolled round loops — implement a ``LocalStrategy`` instead.

ENG002 guards the stacked execution path: a strategy that opts into
``supports_vectorized`` promises one stacked step per block, so a
``for ... in nodes`` Python loop inside its ``local_step`` /
``local_block_vectorized`` path (including ``self.``-helpers those methods
call) silently reintroduces the per-node cost that stacking exists to
remove.  Intentional *bookkeeping* loops (fanning stacked results back
out to node state) are accepted via the repo baseline, not exempted in the
rule — keeping the list explicit and shrink-only.  Stacking comprehensions
are not flagged: building ``(N, ...)`` inputs necessarily touches every
node once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Union

from .findings import Finding, Severity
from .rules import FileContext, LintRule, dotted_parts, register

__all__ = ["EngineBypassRule", "VectorizedNodeLoopRule"]

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_range_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def _is_t0_mod_test(node: ast.AST) -> bool:
    """Match ``<expr> % <...>.t0`` (or a bare ``t0`` name) anywhere in a test."""
    for sub in ast.walk(node):
        if not (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod)):
            continue
        right = sub.right
        if isinstance(right, ast.Name) and right.id == "t0":
            return True
        parts = dotted_parts(right)
        if parts and parts[-1] == "t0":
            return True
    return False


@register
class EngineBypassRule(LintRule):
    """ENG001: federated round orchestration outside the engine."""

    id = "ENG001"
    title = "engine-bypass"
    severity = Severity.ERROR
    hint = (
        "route the round loop through repro.engine.RoundEngine (implement a "
        "LocalStrategy); only the engine may call platform.aggregate"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "aggregate":
                    parts = dotted_parts(func.value)
                    if parts and parts[-1] == "platform":
                        yield self.finding(
                            ctx,
                            node,
                            "direct platform.aggregate call bypasses the "
                            "round engine",
                        )
            elif isinstance(node, ast.For):
                if not _is_range_call(node.iter):
                    continue
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.If) and _is_t0_mod_test(stmt.test):
                        yield self.finding(
                            ctx,
                            node,
                            "hand-rolled T0 round loop duplicates "
                            "RoundEngine.fit",
                        )
                        break


def _vectorized_opt_in(cls_node: ast.ClassDef) -> bool:
    """Does this class promise stacked execution?

    An explicit ``supports_vectorized = <bool>`` assignment in the class
    body wins (``False`` opt-outs like AdmlStrategy are never scanned);
    otherwise defining ``local_block_vectorized`` counts — a subclass such
    as ProxStrategy inherits the flag, which a static rule cannot resolve.
    """
    explicit: Optional[bool] = None
    defines_block = False
    for stmt in cls_node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name == "local_block_vectorized":
                defines_block = True
            continue
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "supports_vectorized"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, bool)
            ):
                explicit = value.value
    if explicit is not None:
        return explicit
    return defines_block


def _self_calls(func: _FuncDef) -> Set[str]:
    """Names of ``self.<name>(...)`` methods invoked anywhere in ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Name)
            and callee.value.id == "self"
        ):
            names.add(callee.attr)
    return names


def _iterates_nodes(iter_node: ast.AST) -> bool:
    """Match ``for ... in nodes`` and ``zip/enumerate/sorted/reversed(...nodes...)``."""
    if isinstance(iter_node, ast.Name) and iter_node.id == "nodes":
        return True
    if (
        isinstance(iter_node, ast.Call)
        and isinstance(iter_node.func, ast.Name)
        and iter_node.func.id in {"enumerate", "zip", "sorted", "reversed"}
    ):
        for arg in iter_node.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name) and sub.id == "nodes":
                    return True
    return False


@register
class VectorizedNodeLoopRule(LintRule):
    """ENG002: per-node Python loop on a vectorized strategy's step path."""

    id = "ENG002"
    title = "vectorized-node-loop"
    severity = Severity.ERROR
    hint = (
        "stack node state into (N, ...) arrays and call the closed-form "
        "kernels (repro.nn.batched) once per step; accepted bookkeeping "
        "fan-out loops belong in analysis/baseline.json"
    )

    _ENTRY_METHODS = frozenset({"local_step", "local_block_vectorized"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls_node in ast.walk(ctx.tree):
            if not isinstance(cls_node, ast.ClassDef):
                continue
            if not _vectorized_opt_in(cls_node):
                continue
            methods: Dict[str, _FuncDef] = {
                stmt.name: stmt
                for stmt in cls_node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            # The step path: the entry methods plus every self.-helper
            # reachable from them within this class body (fixpoint).
            reach: List[str] = [
                name for name in self._ENTRY_METHODS if name in methods
            ]
            on_path: Set[str] = set(reach)
            while reach:
                current = methods[reach.pop()]
                for callee in sorted(_self_calls(current)):
                    if callee in methods and callee not in on_path:
                        on_path.add(callee)
                        reach.append(callee)
            for name in sorted(on_path):
                for node in ast.walk(methods[name]):
                    if isinstance(node, ast.For) and _iterates_nodes(
                        node.iter
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"per-node loop in {cls_node.name}.{name} on "
                            "the vectorized step path",
                        )
