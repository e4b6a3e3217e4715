"""Divergence bisection: find the *first* place two runs disagree.

``repro check-determinism`` runs one config twice and hands both telemetry
streams here.  Rather than a blunt "results differ", the comparator walks
the unified event log (PR 6) in block order and reports the earliest
diverging coordinate, most specific signal first:

1. **RNG ledger** (``rng_ledger`` events, either executor) — a draw-count or
   draw-shape mismatch at ``(block, node)`` means the strategy's control
   flow through its seeded stream already differs: the root cause is at or
   before this point.
2. **Node fingerprints** (``params_fp`` on ``node_result`` events) — same
   draws but different bytes pinpoints out-of-band entropy (an unseeded
   draw the ledger cannot see) at an exact ``(block, node)``.
3. **Round lifecycle** (``round_end`` participants) — a participation
   mismatch implicates sampling/fault decisions rather than local training.
4. **History and final parameters** — the coarse backstop; reached only if
   the per-block signals were unavailable (e.g. fingerprints disabled).

Wall-clock fields (``duration_s``), cache statistics (``cache_hit``),
and tracebacks legitimately differ between runs and are excluded from
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.events import RunRecord

__all__ = ["DivergencePoint", "RunFingerprint", "compare_runs"]


@dataclass(frozen=True)
class DivergencePoint:
    """The first coordinate where two runs disagree."""

    round: int
    block: int
    node: Optional[int]
    metric: str
    value_a: Any
    value_b: Any

    def render(self) -> str:
        where = f"round {self.round} (block {self.block}"
        where += f", node {self.node})" if self.node is not None else ")"
        return (
            f"first divergence at {where}: {self.metric} "
            f"{self.value_a!r} != {self.value_b!r}"
        )


@dataclass
class RunFingerprint:
    """Everything comparable about one run, keyed for bisection."""

    label: str
    #: (block, node) -> {"draws": int, "fingerprint": str}
    ledger: Dict[Tuple[int, int], Dict[str, Any]] = field(default_factory=dict)
    #: (block, node) -> {"params_fp": str, "steps": int}
    node_results: Dict[Tuple[int, int], Dict[str, Any]] = field(
        default_factory=dict
    )
    #: block -> participants
    rounds: Dict[int, int] = field(default_factory=dict)
    #: per-evaluation history rows (loss/accuracy), in order
    history: List[Dict[str, Any]] = field(default_factory=list)
    final_params_fp: Optional[str] = None

    @classmethod
    def from_records(
        cls,
        records: Sequence[dict],
        label: str,
        history: Optional[Sequence[Dict[str, Any]]] = None,
        final_params_fp: Optional[str] = None,
    ) -> "RunFingerprint":
        run = RunRecord.from_records(records)
        fp = cls(label=label, final_params_fp=final_params_fp)
        for event in run.events:
            kind = event.get("kind")
            if kind == "rng_ledger":
                key = (int(event["block"]), int(event["node"]))
                fp.ledger[key] = {
                    "draws": int(event.get("draws", 0)),
                    "fingerprint": event.get("fingerprint"),
                }
            elif kind == "node_result":
                key = (int(event["block"]), int(event["node"]))
                entry: Dict[str, Any] = {"steps": event.get("steps")}
                if "params_fp" in event:
                    entry["params_fp"] = event["params_fp"]
                fp.node_results[key] = entry
            elif kind == "round_end":
                fp.rounds[int(event["block"])] = int(
                    event.get("participants", -1)
                )
        if history is not None:
            fp.history = [dict(row) for row in history]
        return fp

    def blocks(self) -> List[int]:
        seen = {block for block, _ in self.ledger}
        seen.update(block for block, _ in self.node_results)
        seen.update(self.rounds)
        return sorted(seen)


def _compare_block_maps(
    block: int,
    map_a: Dict[Tuple[int, int], Dict[str, Any]],
    map_b: Dict[Tuple[int, int], Dict[str, Any]],
    metric_prefix: str,
) -> Optional[DivergencePoint]:
    nodes = sorted(
        {node for b, node in map_a if b == block}
        | {node for b, node in map_b if b == block}
    )
    for node in nodes:
        entry_a = map_a.get((block, node))
        entry_b = map_b.get((block, node))
        if entry_a is None or entry_b is None:
            return DivergencePoint(
                round=block,
                block=block,
                node=node,
                metric=f"{metric_prefix}.present",
                value_a=entry_a is not None,
                value_b=entry_b is not None,
            )
        for key in sorted(set(entry_a) | set(entry_b)):
            if entry_a.get(key) != entry_b.get(key):
                return DivergencePoint(
                    round=block,
                    block=block,
                    node=node,
                    metric=f"{metric_prefix}.{key}",
                    value_a=entry_a.get(key),
                    value_b=entry_b.get(key),
                )
    return None


def compare_runs(
    a: RunFingerprint, b: RunFingerprint
) -> Optional[DivergencePoint]:
    """The earliest diverging ``(round, block, node, metric)``; None if equal."""
    blocks = sorted(set(a.blocks()) | set(b.blocks()))
    for block in blocks:
        # Most specific signal first within the block: the draw sequence,
        # then the resulting node state, then the round's shape.
        point = _compare_block_maps(block, a.ledger, b.ledger, "rng")
        if point is not None:
            return point
        point = _compare_block_maps(
            block, a.node_results, b.node_results, "node"
        )
        if point is not None:
            return point
        if a.rounds.get(block) != b.rounds.get(block):
            return DivergencePoint(
                round=block,
                block=block,
                node=None,
                metric="round.participants",
                value_a=a.rounds.get(block),
                value_b=b.rounds.get(block),
            )
    rows = max(len(a.history), len(b.history))
    for index in range(rows):
        row_a = a.history[index] if index < len(a.history) else {}
        row_b = b.history[index] if index < len(b.history) else {}
        for key in sorted(set(row_a) | set(row_b)):
            if row_a.get(key) != row_b.get(key):
                block = int(row_a.get("round", row_b.get("round", index)))
                return DivergencePoint(
                    round=block,
                    block=block,
                    node=None,
                    metric=f"history.{key}",
                    value_a=row_a.get(key),
                    value_b=row_b.get(key),
                )
    if a.final_params_fp != b.final_params_fp:
        last_block = blocks[-1] if blocks else -1
        return DivergencePoint(
            round=last_block,
            block=last_block,
            node=None,
            metric="final.params_fp",
            value_a=a.final_params_fp,
            value_b=b.final_params_fp,
        )
    return None
