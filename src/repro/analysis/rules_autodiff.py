"""Autodiff hygiene rules.

The MAML meta-gradient differentiates *through* an inner gradient step, so
the engine's invariants are global correctness properties of the repo:

* tensors must not be mutated in place — the graph records references, and a
  mutated ``.data`` silently invalidates every VJP that captured it;
* VJP closures must stay differentiable — any detach (``.numpy()``,
  ``.item()``, ``.data``) or raw ``np.*`` call inside a VJP severs the
  cotangent graph and breaks ``create_graph=True`` (double backward).

The dynamic counterpart of the VJP rules is the double-backward audit in
:mod:`repro.analysis.sanitizer`; these static rules catch the same class of
bug at review time, before any graph is built.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .findings import Finding, Severity
from .rules import FileContext, LintRule, dotted_parts, register

__all__ = [
    "TensorInplaceMutationRule",
    "VjpDetachRule",
    "VjpRawNumpyRule",
    "collect_vjp_closures",
]

_TENSOR_SLOTS = {"data", "grad"}
_DETACH_ATTRS = {"numpy", "item", "detach", "data"}
_GRAPH_BUILDERS = {"_make", "_Context"}


def collect_vjp_closures(tree: ast.Module) -> List[ast.AST]:
    """Find function/lambda nodes that act as VJP closures.

    A closure counts as a VJP if it is (a) a lambda or def appearing inside
    the argument list of a call to ``_make`` or ``_Context`` (the graph
    constructors), (b) a function named ``vjp*``, or (c) a lambda defined
    inside a ``make_vjp*`` factory.
    """
    closures: List[ast.AST] = []
    # AST nodes hash by object identity, so a plain node set de-duplicates
    # without reaching for id() (which DET104 rightly flags).
    seen: Set[ast.AST] = set()

    def add(node: ast.AST) -> None:
        if node not in seen:
            seen.add(node)
            closures.append(node)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func_parts = dotted_parts(node.func)
            name = func_parts[-1] if func_parts else ""
            if name in _GRAPH_BUILDERS:
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        if isinstance(
                            sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            add(sub)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("vjp"):
                add(node)
            elif node.name.startswith("make_vjp"):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Lambda):
                        add(sub)
    return closures


@register
class TensorInplaceMutationRule(LintRule):
    """AD101: in-place mutation of ``.data``/``.grad`` outside the engine."""

    id = "AD101"
    title = "tensor-inplace-mutation"
    severity = Severity.ERROR
    hint = (
        "build a new Tensor instead of mutating; the graph captures "
        "references, not copies"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_autodiff:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_target(ctx, target, aug=False)
            elif isinstance(node, ast.AugAssign):
                yield from self._check_target(ctx, node.target, aug=True)

    def _check_target(
        self, ctx: FileContext, target: ast.AST, aug: bool
    ) -> Iterator[Finding]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_target(ctx, element, aug)
            return
        attr = None
        if isinstance(target, ast.Attribute) and target.attr in _TENSOR_SLOTS:
            attr = target
            # ``self.data = ...`` in a class initialising its own attribute
            # is ownership, not tensor mutation — unless it is augmented.
            if (
                not aug
                and isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
            ):
                return
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Attribute) and base.attr in _TENSOR_SLOTS:
                attr = base
            elif (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Attribute)
                and base.func.attr == "numpy"
            ):
                # ``t.numpy()[...] = x`` — the result is a view of tensor
                # storage (read-only at runtime, but flag it statically
                # regardless).
                kind = "augmented assignment into" if aug else "assignment into"
                yield self.finding(
                    ctx,
                    target,
                    f"{kind} '.numpy()' result writes tensor storage in place",
                )
                return
        if attr is not None:
            kind = "augmented assignment to" if aug else "assignment into"
            yield self.finding(
                ctx,
                target,
                f"{kind} '.{attr.attr}' mutates tensor storage in place",
            )


@register
class VjpDetachRule(LintRule):
    """AD102: detaching accesses inside a VJP closure break double backward."""

    id = "AD102"
    title = "vjp-detach"
    severity = Severity.ERROR
    hint = (
        "express the cotangent with differentiable ops; never touch "
        ".data/.numpy()/.item() inside a VJP"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for closure in collect_vjp_closures(ctx.tree):
            body = closure.body if isinstance(closure, ast.Lambda) else closure
            for node in ast.walk(body):  # type: ignore[arg-type]
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in _DETACH_ATTRS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"'.{node.attr}' inside a VJP closure detaches the "
                        "cotangent from the graph",
                    )


@register
class VjpRawNumpyRule(LintRule):
    """AD103: raw ``np.*`` calls inside a VJP produce constant cotangents."""

    id = "AD103"
    title = "vjp-raw-numpy"
    severity = Severity.ERROR
    hint = (
        "use repro.autodiff.ops primitives so the cotangent stays a "
        "graph node"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for closure in collect_vjp_closures(ctx.tree):
            body = closure.body if isinstance(closure, ast.Lambda) else closure
            for node in ast.walk(body):  # type: ignore[arg-type]
                if not isinstance(node, ast.Call):
                    continue
                parts = dotted_parts(node.func)
                if len(parts) >= 2 and parts[0] in ("np", "numpy"):
                    yield self.finding(
                        ctx,
                        node,
                        f"raw numpy call '{'.'.join(parts)}' inside a VJP "
                        "closure breaks create_graph=True",
                    )
