"""Platform↔edge communication model.

The paper's central systems trade-off is communication (global aggregations)
versus local computation (``T0`` local steps per round).  To make that
trade-off measurable, every upload/download in the simulation is charged
against a simple deterministic link model and logged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["LinkModel", "CommunicationLog", "TransferRecord"]


@dataclass(frozen=True)
class LinkModel:
    """A symmetric-latency, asymmetric-bandwidth wireless link.

    Defaults approximate a mid-band LTE uplink/downlink, the regime the
    paper's edge-intelligence motivation targets.
    """

    uplink_bytes_per_s: float = 1.25e6  # 10 Mbit/s
    downlink_bytes_per_s: float = 5.0e6  # 40 Mbit/s
    latency_s: float = 0.05

    def __post_init__(self) -> None:
        if min(self.uplink_bytes_per_s, self.downlink_bytes_per_s) <= 0:
            raise ValueError("bandwidths must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")

    def upload_time(self, num_bytes: int) -> float:
        return self.latency_s + num_bytes / self.uplink_bytes_per_s

    def download_time(self, num_bytes: int) -> float:
        return self.latency_s + num_bytes / self.downlink_bytes_per_s


@dataclass(frozen=True)
class TransferRecord:
    """One logged transfer between a node and the platform."""

    round_index: int
    node_id: int
    direction: str  # "up" or "down"
    num_bytes: int
    seconds: float


@dataclass
class CommunicationLog:
    """Accumulates all transfers of a federated run.

    The byte totals are running sums, seeded from ``records`` when the log
    is built and grown by :meth:`charge_upload` / :meth:`charge_download`,
    so reading them costs the same however long the run (charge through
    those two; a record appended by hand is not counted).  A resumed run
    starts with an empty record list but must report the same cumulative
    byte totals as the uninterrupted run (history records log
    ``uplink_bytes``); :meth:`restore_totals` adds the byte counts the
    checkpoint carried.  Timing views (:meth:`round_time`,
    :attr:`total_time`) only cover live records.
    """

    link: LinkModel = field(default_factory=LinkModel)
    records: List[TransferRecord] = field(default_factory=list)
    _uplink_bytes: int = field(default=0, init=False, repr=False)
    _downlink_bytes: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._uplink_bytes = sum(
            r.num_bytes for r in self.records if r.direction == "up"
        )
        self._downlink_bytes = sum(
            r.num_bytes for r in self.records if r.direction == "down"
        )

    def restore_totals(self, uplink_bytes: int, downlink_bytes: int) -> None:
        """Carry a checkpointed run's byte totals into this log."""
        if min(uplink_bytes, downlink_bytes) < 0:
            raise ValueError("restored byte totals must be non-negative")
        self._uplink_bytes += int(uplink_bytes)
        self._downlink_bytes += int(downlink_bytes)

    def charge_upload(self, round_index: int, node_id: int, num_bytes: int) -> float:
        seconds = self.link.upload_time(num_bytes)
        self.records.append(
            TransferRecord(round_index, node_id, "up", num_bytes, seconds)
        )
        self._uplink_bytes += num_bytes
        return seconds

    def charge_download(self, round_index: int, node_id: int, num_bytes: int) -> float:
        seconds = self.link.download_time(num_bytes)
        self.records.append(
            TransferRecord(round_index, node_id, "down", num_bytes, seconds)
        )
        self._downlink_bytes += num_bytes
        return seconds

    @property
    def total_bytes(self) -> int:
        return self.uplink_bytes + self.downlink_bytes

    @property
    def uplink_bytes(self) -> int:
        return self._uplink_bytes

    @property
    def downlink_bytes(self) -> int:
        return self._downlink_bytes

    def round_time(self, round_index: int) -> float:
        """Wall-clock cost of one aggregation round (slowest node wins)."""
        ups = [
            r.seconds
            for r in self.records
            if r.round_index == round_index and r.direction == "up"
        ]
        downs = [
            r.seconds
            for r in self.records
            if r.round_index == round_index and r.direction == "down"
        ]
        return (max(ups) if ups else 0.0) + (max(downs) if downs else 0.0)

    @property
    def total_time(self) -> float:
        # Sorted before summing: float addition is order-sensitive, and set
        # iteration order is not part of the determinism contract (DET103).
        rounds = {r.round_index for r in self.records}
        return sum(self.round_time(idx) for idx in sorted(rounds))
