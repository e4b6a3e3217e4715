"""The coordination platform.

The platform never sees raw data — it only receives model parameters from
source edge nodes, aggregates them (eq. 5), redistributes the global model,
and eventually transfers the learned initialization to a target edge node.
A round stacks the uploads on a node axis and applies one aggregation rule
(:mod:`.aggregation`) to the stack.  Every upload and broadcast is charged
its wire size under :mod:`repro.utils.serialization`'s format, computed
from names and shapes (:func:`~repro.utils.serialization.payload_bytes`),
and each node receives the broadcast as fresh leaves sharing the global
model's arrays — safe because no code writes a tensor's ``.data`` in place
(lint rule AD101).  The transfer to a target still round-trips the wire
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..nn.batched import stack_params
from ..nn.parameters import Params, detach
from ..obs.telemetry import NullTelemetry, Telemetry, resolve
from ..utils.serialization import (
    deserialize_params,
    payload_bytes,
    serialize_params,
)
from .aggregation import instrument_aggregator, normalized_weights, weighted_mean
from .network import CommunicationLog, LinkModel
from .node import EdgeNode

__all__ = ["Platform"]

#: ``(participants' trees stacked on a node axis, normalized weights) -> θ``
Aggregator = Callable[[Params, np.ndarray], Params]


def check_uploads(nodes: Sequence[EdgeNode]) -> np.ndarray:
    """The round's normalized weights, once every participant can upload.

    Every platform runs this before it changes any state, so a rejected
    round leaves no counter, log record or global model behind.
    """
    if not nodes:
        raise ValueError("cannot aggregate with zero participating nodes")
    weights = normalized_weights([node.weight for node in nodes])
    for node in nodes:
        if node.params is None:
            raise RuntimeError(f"node {node.node_id} has no parameters to upload")
    return weights


@dataclass
class Platform:
    """Coordinates federated (meta-)training rounds."""

    link: LinkModel = field(default_factory=LinkModel)
    aggregator: Optional[Aggregator] = None
    comm_log: CommunicationLog = field(init=False)
    global_params: Optional[Params] = None
    rounds_completed: int = field(default=0)
    #: optional observability collector; ``None`` keeps every hook a no-op
    telemetry: Optional[Telemetry] = None

    def __post_init__(self) -> None:
        self.comm_log = CommunicationLog(link=self.link)
        if self.aggregator is None:
            self.aggregator = weighted_mean

    def initialize(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        """Install θ⁰ and broadcast it to all source nodes (Algorithm 1,
        line 3).  A fit starts from no rounds and an empty log, so a
        platform that fits again reports that fit's rounds and bytes."""
        self.global_params = params
        self.rounds_completed = 0
        self.comm_log = CommunicationLog(link=self.link)
        self._broadcast(nodes, round_index=0)

    def restore(
        self,
        params: Params,
        nodes: Sequence[EdgeNode],
        rounds_completed: int,
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Reinstate a checkpointed run's platform state without charging.

        The checkpoint was written at an aggregation boundary, where every
        node already held the broadcast global model — so installing the
        parameters here moves no bytes; the totals the interrupted run had
        accumulated are carried over as offsets on a fresh communication
        log, so records a killed fit left on this platform are not counted
        twice.
        """
        if rounds_completed < 0:
            raise ValueError("rounds_completed must be non-negative")
        self.global_params = params
        self.rounds_completed = rounds_completed
        self.comm_log = CommunicationLog(link=self.link)
        self.comm_log.restore_totals(uplink_bytes, downlink_bytes)
        for node in nodes:
            node.params = {name: t.detach() for name, t in params.items()}

    def aggregate(self, nodes: Sequence[EdgeNode]) -> Params:
        """One global aggregation: collect uploads, average, redistribute.

        Node weights are renormalized over the participating subset so the
        update remains a convex combination even under partial participation.
        """
        weights = check_uploads(nodes)
        tel = resolve(self.telemetry)
        self.rounds_completed += 1
        round_index = self.rounds_completed
        trees = self._receive(nodes, round_index, tel)
        tel.counter("fl_uploads_total").inc(len(nodes))
        tel.gauge("fl_participants").set(len(nodes))
        aggregator = instrument_aggregator(self.aggregator, tel)
        self.global_params = aggregator(stack_params(trees), weights)
        self._broadcast(nodes, round_index)
        return self.global_params

    def transfer_to_target(self) -> Params:
        """Ship the learned initialization to a target edge node (Figure 1)."""
        if self.global_params is None:
            raise RuntimeError("platform has no trained model to transfer")
        return deserialize_params(serialize_params(self.global_params))

    # ------------------------------------------------------------------
    def _receive(
        self,
        nodes: Sequence[EdgeNode],
        round_index: int,
        tel: "Telemetry | NullTelemetry",
    ) -> List[Params]:
        """Charge every upload; returns the trees as the platform gets them."""
        trees: List[Params] = []
        sent = 0
        for node in nodes:
            assert node.params is not None  # check_uploads ran
            size = payload_bytes(node.params)
            self.comm_log.charge_upload(round_index, node.node_id, size)
            sent += size
            trees.append(node.params)
        tel.counter("fl_bytes_up_total").inc(sent)
        return trees

    def _broadcast(self, nodes: Sequence[EdgeNode], round_index: int) -> None:
        if self.global_params is None:
            raise RuntimeError("no global parameters to broadcast")
        size = payload_bytes(self.global_params)
        for node in nodes:
            self.comm_log.charge_download(round_index, node.node_id, size)
            node.params = detach(self.global_params)
        resolve(self.telemetry).counter("fl_bytes_down_total").inc(
            size * len(nodes)
        )
