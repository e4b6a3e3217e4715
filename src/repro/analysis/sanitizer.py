"""Dynamic autodiff-graph sanitizer.

Three cooperating checks over *recorded* graphs (complementing the static
VJP rules in :mod:`repro.analysis.rules_autodiff`):

``replay_graph``
    An abstract shape/dtype interpreter: walks a traced graph in topological
    order and flags float64 downcasts, outer-product-style broadcast
    expansions (an elementwise op whose output is larger than every input),
    and non-finite values.

``audit_double_backward``
    Instantiates every op registered in ``repro.autodiff.ops`` on tiny fixed
    inputs, seeds the backward pass with a cotangent that itself requires
    grad, and verifies the produced gradients still depend differentiably on
    that seed.  Any VJP that detaches — a raw ``np.*`` call, ``.data``
    access, a constant cotangent — severs that dependence and fails the
    audit, which is exactly the class of bug that silently breaks MAML's
    ``create_graph=True`` meta-gradient.  Ops in ``__all__`` without an
    audit spec fail too, so new ops cannot land uncovered.

``detect_retained_graphs``
    Walks ``.grad`` slots after a backward pass: a gradient that still
    carries a ``_ctx`` retains the whole forward graph (the classic
    retained-graph memory leak).

:func:`run_graph_checks` bundles all three for the ``repro check-graph``
CLI subcommand and the CI gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import Tensor, grad, toposort
from .findings import Finding, Severity

__all__ = [
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

#: Names in ``ops.__all__`` that construct constant leaves, not graph nodes.
CONSTANT_OPS = frozenset({"as_tensor", "zeros_like", "ones_like"})

#: Ops whose cotangent is constant in the seed only because the op itself is
#: locally constant (none today; placeholder for e.g. rounding ops).
_SEED_INDEPENDENT_OPS: frozenset = frozenset()


@dataclass(frozen=True)
class OpSpec:
    """How to instantiate one op on tiny symbolic inputs for the audit."""

    name: str
    fn: Callable[..., Tensor]
    args: Tuple[np.ndarray, ...]

    def build_inputs(self) -> List[Tensor]:
        return [Tensor(a.copy(), requires_grad=True) for a in self.args]


# Fixed, RNG-free sample arrays: distinct magnitudes (no reduction ties),
# nothing at a relu/clip kink, strictly positive variants for log/sqrt/div.
_A = np.array([[0.3, -0.7, 1.2], [0.9, 0.4, -1.1]])
_B = np.array([[-0.2, 0.8, -1.4], [0.6, -0.9, 0.5]])
_P = np.array([[0.5, 1.5, 2.5], [3.0, 0.7, 1.2]])
_M = np.array([[0.31, -0.72], [1.21, 0.93], [-0.44, 0.57]])  # (3, 2)
_ROW = np.array([[0.4, -0.6, 1.1]])  # (1, 3)
_COND = np.array([[True, False, True], [False, True, False]])
_INDEX = (np.array([0, 1, 1]),)  # duplicate rows: exercises scatter-add
# A soft (non-one-hot) target weighting so the fused cross-entropy op gets a
# non-degenerate targets gradient in the audit.
_T3 = np.array([[0.2, 0.5, 0.3], [0.7, 0.1, 0.2]])  # (2, 3)


def _specs() -> Dict[str, OpSpec]:
    entries: List[OpSpec] = [
        OpSpec("add", ops.add, (_A, _B)),
        OpSpec("sub", ops.sub, (_A, _B)),
        OpSpec("mul", ops.mul, (_A, _B)),
        OpSpec("div", ops.div, (_A, _P)),
        OpSpec("neg", ops.neg, (_A,)),
        OpSpec("power", lambda a: ops.power(a, 3.0), (_A,)),
        OpSpec("exp", ops.exp, (_A,)),
        OpSpec("log", ops.log, (_P,)),
        OpSpec("sqrt", ops.sqrt, (_P,)),
        OpSpec("tanh", ops.tanh, (_A,)),
        OpSpec("sigmoid", ops.sigmoid, (_A,)),
        OpSpec("relu", ops.relu, (_A,)),
        OpSpec("abs_", ops.abs_, (_A,)),
        OpSpec("clip", lambda a: ops.clip(a, -1.0, 1.0), (_A,)),
        OpSpec("matmul", ops.matmul, (_A, _M)),
        OpSpec("max_", lambda a: ops.max_(a, axis=1), (_A,)),
        OpSpec("min_", lambda a: ops.min_(a, axis=1), (_A,)),
        OpSpec("where", lambda a, b: ops.where(_COND, a, b), (_A, _B)),
        OpSpec("stack", lambda a, b: ops.stack([a, b], axis=0), (_A, _B)),
        OpSpec(
            "concatenate",
            lambda a, b: ops.concatenate([a, b], axis=0),
            (_A, _B),
        ),
        OpSpec("sum_", lambda a: ops.sum_(a, axis=0), (_A,)),
        OpSpec("mean", lambda a: ops.mean(a, axis=1, keepdims=True), (_A,)),
        OpSpec("reshape", lambda a: ops.reshape(a, (3, 2)), (_A,)),
        OpSpec("transpose", ops.transpose, (_A,)),
        OpSpec(
            "broadcast_to", lambda a: ops.broadcast_to(a, (2, 3)), (_ROW,)
        ),
        OpSpec("getitem", lambda a: ops.getitem(a, _INDEX), (_A,)),
        OpSpec("logsumexp", lambda a: ops.logsumexp(a, axis=-1), (_A,)),
        OpSpec("log_softmax", lambda a: ops.log_softmax(a, axis=-1), (_A,)),
        OpSpec("softmax", lambda a: ops.softmax(a, axis=-1), (_A,)),
        OpSpec("softmax_xent", ops.softmax_xent, (_A, _T3)),
        OpSpec("norm_sq", ops.norm_sq, (_A,)),
    ]
    return {spec.name: spec for spec in entries}


#: Audit spec per differentiable op; the single source of truth shared with
#: the gradcheck sweep in ``tests/autodiff/test_gradcheck_sweep.py``.
OP_SPECS: Dict[str, OpSpec] = _specs()


def audited_op_names(op_names: Optional[Sequence[str]] = None) -> List[str]:
    """Ops the audit must cover: everything registered minus constant ops."""
    names = list(op_names) if op_names is not None else list(ops.__all__)
    return [n for n in names if n not in CONSTANT_OPS]


# ----------------------------------------------------------------------
# 1. Abstract shape/dtype replay
# ----------------------------------------------------------------------
_ELEMENTWISE_OPS = frozenset(
    {"add", "sub", "mul", "div", "where", "power", "maximum", "minimum"}
)


def replay_graph(
    root: Tensor,
    expect_dtype: np.dtype = np.dtype(np.float64),
    check_finite: bool = True,
) -> List[Finding]:
    """Symbolically re-walk a recorded graph, flagging structural hazards."""
    findings: List[Finding] = []
    for node in toposort(root):
        op_name = node._ctx.op_name if node._ctx is not None else "leaf"
        where_ = f"node '{op_name}' shape={node.shape}"
        if node.data.dtype != expect_dtype:
            findings.append(
                Finding(
                    rule_id="AD201",
                    severity=Severity.ERROR,
                    path="<graph>",
                    line=0,
                    message=(
                        f"{where_} has dtype {node.data.dtype}, expected "
                        f"{expect_dtype} (downcast loses second-order "
                        "precision)"
                    ),
                    hint="keep all graph buffers float64",
                )
            )
        if (
            node._ctx is not None
            and node._ctx.op_name in _ELEMENTWISE_OPS
            and len(node._ctx.parents) >= 2
        ):
            max_parent = max(p.size for p in node._ctx.parents)
            if node.size > max_parent:
                shapes = [p.shape for p in node._ctx.parents]
                findings.append(
                    Finding(
                        rule_id="AD202",
                        severity=Severity.WARNING,
                        path="<graph>",
                        line=0,
                        message=(
                            f"{where_} broadcast {shapes} into "
                            f"{node.shape}: output exceeds every input "
                            "(outer-product-style expansion; often an "
                            "unintended (n,1) vs (n,) mix)"
                        ),
                        hint="reshape operands to matching ranks explicitly",
                    )
                )
        if check_finite and not np.all(np.isfinite(node.data)):
            findings.append(
                Finding(
                    rule_id="AD203",
                    severity=Severity.WARNING,
                    path="<graph>",
                    line=0,
                    message=f"{where_} contains non-finite values",
                    hint="clamp inputs or use the stable composites "
                    "(logsumexp, log_softmax)",
                )
            )
    return findings


# ----------------------------------------------------------------------
# 2. Double-backward audit
# ----------------------------------------------------------------------
def audit_double_backward(
    op_names: Optional[Sequence[str]] = None,
    specs: Optional[Mapping[str, OpSpec]] = None,
) -> List[Finding]:
    """Verify every registered op's VJP builds a differentiable cotangent."""
    table = specs if specs is not None else OP_SPECS
    findings: List[Finding] = []
    for name in audited_op_names(op_names):
        spec = table.get(name)
        if spec is None:
            findings.append(
                Finding(
                    rule_id="AD210",
                    severity=Severity.ERROR,
                    path="<ops>",
                    line=0,
                    message=(
                        f"op '{name}' is registered in ops.__all__ but has "
                        "no double-backward audit spec"
                    ),
                    hint="add an OpSpec to repro.analysis.sanitizer.OP_SPECS",
                )
            )
            continue
        findings.extend(_audit_one(spec))
    return findings


def _audit_one(spec: OpSpec) -> List[Finding]:
    findings: List[Finding] = []
    try:
        inputs = spec.build_inputs()
        out = spec.fn(*inputs)
        seed = Tensor(np.ones_like(out.data), requires_grad=True)
        grads = grad(
            out,
            inputs,
            grad_output=seed,
            create_graph=True,
            allow_unused=True,
        )
    except Exception as exc:  # noqa: BLE001 — an audit must not crash CI
        return [
            Finding(
                rule_id="AD212",
                severity=Severity.ERROR,
                path="<ops>",
                line=0,
                message=f"op '{spec.name}' audit raised {type(exc).__name__}: {exc}",
                hint="the op or its VJP is broken on tiny inputs",
            )
        ]
    produced_any = False
    for index, g in enumerate(grads):
        if g is None:
            continue
        produced_any = True
        if spec.name in _SEED_INDEPENDENT_OPS:
            continue
        try:
            (d_seed,) = grad(ops.sum_(g), [seed], allow_unused=True)
        except Exception as exc:  # noqa: BLE001
            findings.append(
                Finding(
                    rule_id="AD212",
                    severity=Severity.ERROR,
                    path="<ops>",
                    line=0,
                    message=(
                        f"op '{spec.name}' grad-of-grad raised "
                        f"{type(exc).__name__}: {exc}"
                    ),
                    hint="the VJP builds an invalid second-order graph",
                )
            )
            continue
        if d_seed is None:
            findings.append(
                Finding(
                    rule_id="AD211",
                    severity=Severity.ERROR,
                    path="<ops>",
                    line=0,
                    message=(
                        f"op '{spec.name}' VJP for input {index} does not "
                        "depend on the output cotangent: the backward graph "
                        "is severed (create_graph=True will silently return "
                        "first-order-only gradients)"
                    ),
                    hint="write the VJP with repro.autodiff.ops primitives; "
                    "no raw np.* calls or .data access",
                )
            )
    if not produced_any:
        findings.append(
            Finding(
                rule_id="AD212",
                severity=Severity.ERROR,
                path="<ops>",
                line=0,
                message=f"op '{spec.name}' produced no gradient for any input",
                hint="check the op's requires_grad propagation",
            )
        )
    return findings


# ----------------------------------------------------------------------
# 3. Retained-graph leak detection
# ----------------------------------------------------------------------
def detect_retained_graphs(
    named_tensors: Mapping[str, Tensor],
) -> List[Finding]:
    """Flag ``.grad`` slots that keep a forward graph alive after backward."""
    findings: List[Finding] = []
    for name, tensor_ in named_tensors.items():
        g = tensor_.grad
        if g is None or g._ctx is None:
            continue
        retained = len(toposort(g))
        retained_bytes = sum(n.data.nbytes for n in toposort(g))
        findings.append(
            Finding(
                rule_id="AD220",
                severity=Severity.ERROR,
                path="<graph>",
                line=0,
                message=(
                    f"'{name}'.grad retains a live graph of {retained} "
                    f"nodes ({retained_bytes} bytes): gradients stored on "
                    "leaves must be detached"
                ),
                hint="store grad.detach() (or use grad() without "
                "create_graph) before keeping gradients on parameters",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Bundled run for the CLI / CI gate
# ----------------------------------------------------------------------
@dataclass
class GraphReport:
    """Outcome of one ``check-graph`` run."""

    findings: List[Finding] = field(default_factory=list)
    ops_audited: int = 0
    ops_total: int = 0
    section_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        status = "clean" if self.ok else "FAILED"
        timings = ", ".join(
            f"{name} {seconds * 1e3:.1f}ms"
            for name, seconds in self.section_seconds.items()
        )
        lines.append(
            f"check-graph: {status} — {self.ops_audited}/{self.ops_total} "
            f"ops audited, {len(self.findings)} findings ({timings})"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "ops_audited": self.ops_audited,
            "ops_total": self.ops_total,
            "section_seconds": dict(self.section_seconds),
            "findings": [f.to_dict() for f in self.findings],
        }


def _demo_graph() -> Tuple[Tensor, Dict[str, Tensor]]:
    """A miniature logistic-regression step exercising the core op mix."""
    x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
    y = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    w = Tensor(_M.copy(), requires_grad=True)
    b = Tensor(np.array([[0.1, -0.1]]), requires_grad=True)
    logits = ops.add(ops.matmul(x, w), ops.broadcast_to(b, (4, 2)))
    log_probs = ops.log_softmax(logits, axis=-1)
    loss = ops.neg(ops.mean(ops.sum_(ops.mul(log_probs, y), axis=1)))
    return loss, {"w": w, "b": b}


def run_graph_checks() -> GraphReport:
    """Audit all registered ops, replay a demo graph, and check for leaks."""
    report = GraphReport(ops_total=len(audited_op_names()))
    start = time.perf_counter()
    audit = audit_double_backward()
    report.section_seconds["double_backward_audit"] = (
        time.perf_counter() - start
    )
    report.ops_audited = report.ops_total - sum(
        1 for f in audit if f.rule_id == "AD210"
    )
    report.findings.extend(audit)

    start = time.perf_counter()
    loss, params = _demo_graph()
    report.findings.extend(replay_graph(loss))
    report.section_seconds["shape_dtype_replay"] = time.perf_counter() - start

    start = time.perf_counter()
    loss.backward()
    report.findings.extend(detect_retained_graphs(params))
    report.section_seconds["retained_graph_check"] = (
        time.perf_counter() - start
    )
    return report
