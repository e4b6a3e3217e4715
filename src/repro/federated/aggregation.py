"""Global aggregation rules over a stacked parameter tree.

Every rule takes the participants' trees stacked on a leading node axis
(:func:`repro.nn.batched.stack_params`, participant order) and the
normalized weights, and returns one tree.  The paper uses the
data-size-weighted average (eq. 5).  Coordinate-wise median and trimmed
mean are provided as robust alternatives — a standard hardening against
Byzantine uploads, exercised by the ablation benches.

:func:`normalized_weights` is the one check every aggregation site runs on
its raw weights before it changes any state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..autodiff import Tensor
from ..nn.parameters import Params

__all__ = [
    "normalized_weights",
    "weighted_mean",
    "coordinate_median",
    "trimmed_mean",
    "instrument_aggregator",
]


def instrument_aggregator(aggregator, telemetry):
    """Wrap an aggregation rule with a timing span and a tree counter.

    With disabled telemetry the original callable is returned unchanged, so
    the platform's hot path pays nothing.  The span is labelled with the
    rule's name so mixed-rule runs (e.g. robust benches) stay attributable.
    """
    if not telemetry.enabled:
        return aggregator
    rule = getattr(aggregator, "__name__", type(aggregator).__name__)

    def wrapped(stacked: Params, weights: np.ndarray) -> Params:
        with telemetry.span("aggregate_rule", rule=rule):
            out = aggregator(stacked, weights)
        telemetry.counter("fl_aggregated_trees_total", rule=rule).inc(
            len(weights)
        )
        return out

    return wrapped


def normalized_weights(weights: Sequence[float]) -> np.ndarray:
    """``ω_i / Σω`` as float64, after checking the raw weights.

    Every weight must be finite and non-negative, with a positive total:
    renormalizing by a zero or non-finite sum would turn every weight into
    NaN and silently poison the global model, and a negative weight leaves
    the convex hull of the uploads.  Callers run this before they change any
    state, so a rejected round leaves no trace.
    """
    raw = np.asarray(weights, dtype=np.float64)
    total = raw.sum()
    if not (np.isfinite(total) and total > 0.0 and (raw >= 0.0).all()):
        raise ValueError(
            f"cannot aggregate: participating node weights sum to "
            f"{float(total)}; every aggregation weight must be finite and "
            "non-negative, with a positive finite total"
        )
    return raw / total


def _num_nodes(stacked: Params) -> int:
    """Length of the stacked tree's node axis; an empty stack is an error."""
    num = min((len(t.data) for t in stacked.values()), default=0)
    if num == 0:
        raise ValueError("cannot aggregate zero parameter trees")
    return num


def weighted_mean(
    stacked: Params, weights: "Sequence[float] | np.ndarray"
) -> Params:
    """θ = Σ ω_i θ_i — the paper's aggregation (eq. 5).

    The products are formed in one operation per tensor; the sum then adds
    them row by row in participant order, starting from zero.  No BLAS call
    or NumPy reduction takes part — ``np.add.reduce`` switches to pairwise
    summation when the node axis is the fast one (0-d parameters) — so the
    result does not depend on the NumPy or BLAS build, nor on its threads.
    """
    num = _num_nodes(stacked)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (num,):
        raise ValueError("one weight per parameter tree is required")
    total = float(w.sum())
    if not np.isclose(total, 1.0):
        raise ValueError(f"aggregation weights must sum to 1, got {total}")
    out: Params = {}
    for name, t in stacked.items():
        scaled = w.reshape((num,) + (1,) * (t.data.ndim - 1)) * t.data
        acc = np.zeros(scaled.shape[1:])
        for row in scaled:
            acc += row
        out[name] = Tensor(acc)
    return out


def coordinate_median(stacked: Params) -> Params:
    """Coordinate-wise median (ignores weights by construction)."""
    _num_nodes(stacked)
    return {
        name: Tensor(np.median(t.data, axis=0)) for name, t in stacked.items()
    }


def trimmed_mean(stacked: Params, trim_fraction: float = 0.1) -> Params:
    """Coordinate-wise mean after trimming the extreme ``trim_fraction`` tails."""
    if not 0.0 <= trim_fraction < 0.5:
        raise ValueError("trim_fraction must be in [0, 0.5)")
    num = _num_nodes(stacked)
    cut = int(np.floor(trim_fraction * num))
    out: Params = {}
    for name, t in stacked.items():
        ordered = np.sort(t.data, axis=0)
        kept = ordered[cut : num - cut] if cut else ordered
        out[name] = Tensor(np.mean(kept, axis=0))
    return out
