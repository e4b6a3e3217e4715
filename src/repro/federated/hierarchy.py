"""Hierarchical (edge → gateway → cloud) aggregation.

Edge deployments rarely ship every device's model over the WAN: devices
aggregate at a nearby gateway (cheap LAN hop), and only gateway summaries
cross the expensive backhaul to the platform.  With G gateways over N
devices, the WAN carries G uploads per round instead of N.

The math is unchanged — a weighted mean of weighted means with the correct
weights equals the flat weighted mean — so hierarchical FedML/FedAvg is a
pure systems optimization.  The implementation keeps separate communication
ledgers for the LAN and WAN tiers so benches can price each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.batched import stack_params
from ..nn.parameters import Params, detach
from ..utils.serialization import (
    deserialize_params,
    payload_bytes,
    serialize_params,
)
from .aggregation import normalized_weights, weighted_mean
from .network import CommunicationLog, LinkModel
from .node import EdgeNode
from .platform import check_uploads

__all__ = ["GatewayAssignment", "HierarchicalPlatform"]


@dataclass(frozen=True)
class GatewayAssignment:
    """Maps each node id to a gateway index."""

    node_to_gateway: Dict[int, int]

    @property
    def num_gateways(self) -> int:
        return len(set(self.node_to_gateway.values()))

    @staticmethod
    def round_robin(node_ids: Sequence[int], num_gateways: int) -> "GatewayAssignment":
        if num_gateways < 1:
            raise ValueError("num_gateways must be >= 1")
        mapping = {
            node_id: i % num_gateways
            for i, node_id in enumerate(sorted(node_ids))
        }
        return GatewayAssignment(node_to_gateway=mapping)

    def gateway_members(self, gateway: int) -> List[int]:
        return sorted(
            node_id for node_id, g in self.node_to_gateway.items() if g == gateway
        )


@dataclass
class HierarchicalPlatform:
    """Two-tier aggregation with per-tier communication accounting.

    Drop-in for :class:`~repro.federated.platform.Platform` in the trainers
    (same ``initialize`` / ``restore`` / ``aggregate`` / ``global_params``
    surface).
    """

    assignment: GatewayAssignment
    lan_link: LinkModel = field(
        default_factory=lambda: LinkModel(
            uplink_bytes_per_s=1.25e7, downlink_bytes_per_s=1.25e7,
            latency_s=0.005,
        )
    )
    wan_link: LinkModel = field(default_factory=LinkModel)
    lan_log: CommunicationLog = field(init=False)
    wan_log: CommunicationLog = field(init=False)
    global_params: Optional[Params] = None
    rounds_completed: int = 0

    def __post_init__(self) -> None:
        self._fresh_ledgers()

    def _fresh_ledgers(self) -> None:
        self.lan_log = CommunicationLog(link=self.lan_link)
        self.wan_log = CommunicationLog(link=self.wan_link)

    # Compatibility shim: trainers read ``platform.comm_log`` for uplink
    # totals; expose the WAN ledger, which is what the paper's cost concern
    # is about.
    @property
    def comm_log(self) -> CommunicationLog:
        return self.wan_log

    def initialize(self, params: Params, nodes: Sequence[EdgeNode]) -> None:
        """Install θ⁰ and broadcast it over both tiers.  A fit starts from
        no rounds and empty ledgers, so a platform that fits again reports
        that fit's rounds and bytes."""
        self.global_params = params
        self.rounds_completed = 0
        self._fresh_ledgers()
        size = payload_bytes(params)
        for gateway in range(self.assignment.num_gateways):
            self.wan_log.charge_download(0, gateway, size)
        for node in nodes:
            self.lan_log.charge_download(0, node.node_id, size)
            node.params = detach(params)

    def restore(
        self,
        params: Params,
        nodes: Sequence[EdgeNode],
        rounds_completed: int,
        uplink_bytes: int = 0,
        downlink_bytes: int = 0,
    ) -> None:
        """Reinstate a checkpointed run's platform state without charging.

        As in ``Platform.restore``, the checkpoint was written at an
        aggregation boundary, so installing θ moves no bytes.  The byte
        totals a checkpoint holds are :attr:`comm_log`'s, the WAN
        ledger's, and carry over as its offsets.  The LAN ledger restarts
        empty: a resumed fit's LAN log holds only the rounds it ran
        itself.
        """
        if rounds_completed < 0:
            raise ValueError("rounds_completed must be non-negative")
        self.global_params = params
        self.rounds_completed = rounds_completed
        self._fresh_ledgers()
        self.wan_log.restore_totals(uplink_bytes, downlink_bytes)
        for node in nodes:
            node.params = detach(params)

    def aggregate(self, nodes: Sequence[EdgeNode]) -> Params:
        check_uploads(nodes)
        by_gateway: Dict[int, List[EdgeNode]] = {}
        for node in nodes:
            if node.node_id not in self.assignment.node_to_gateway:
                raise KeyError(f"node {node.node_id} has no gateway assignment")
            gateway = self.assignment.node_to_gateway[node.node_id]
            by_gateway.setdefault(gateway, []).append(node)
        # A gateway whose members weigh nothing has no mean to forward.
        member_weights = {
            gateway: normalized_weights([n.weight for n in members])
            for gateway, members in by_gateway.items()
        }
        self.rounds_completed += 1
        round_index = self.rounds_completed

        gateway_models: List[Params] = []
        gateway_weights: List[float] = []
        for gateway, members in sorted(by_gateway.items()):
            trees: List[Params] = []
            for node in members:
                assert node.params is not None  # check_uploads ran
                self.lan_log.charge_upload(
                    round_index, node.node_id, payload_bytes(node.params)
                )
                trees.append(node.params)
            local = weighted_mean(stack_params(trees), member_weights[gateway])
            self.wan_log.charge_upload(round_index, gateway, payload_bytes(local))
            gateway_models.append(local)
            gateway_weights.append(float(np.sum([n.weight for n in members])))

        self.global_params = weighted_mean(
            stack_params(gateway_models), normalized_weights(gateway_weights)
        )

        size = payload_bytes(self.global_params)
        for gateway in sorted(by_gateway):
            self.wan_log.charge_download(round_index, gateway, size)
        for node in nodes:
            self.lan_log.charge_download(round_index, node.node_id, size)
            node.params = detach(self.global_params)
        return self.global_params

    def transfer_to_target(self) -> Params:
        if self.global_params is None:
            raise RuntimeError("platform has no trained model to transfer")
        return deserialize_params(serialize_params(self.global_params))
