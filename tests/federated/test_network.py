"""Tests for the link model and communication log."""

import pytest

from repro.federated import CommunicationLog, LinkModel
from repro.federated.network import TransferRecord


class TestLinkModel:
    def test_upload_time(self):
        link = LinkModel(uplink_bytes_per_s=1000, downlink_bytes_per_s=2000, latency_s=0.1)
        assert link.upload_time(500) == pytest.approx(0.1 + 0.5)

    def test_download_faster_than_upload(self):
        link = LinkModel()
        assert link.download_time(10_000) < link.upload_time(10_000)

    def test_zero_bytes_costs_latency_only(self):
        link = LinkModel(latency_s=0.2)
        assert link.upload_time(0) == pytest.approx(0.2)

    def test_invalid_bandwidth_raises(self):
        with pytest.raises(ValueError):
            LinkModel(uplink_bytes_per_s=0)

    def test_negative_latency_raises(self):
        with pytest.raises(ValueError):
            LinkModel(latency_s=-0.1)


class TestCommunicationLog:
    def test_accumulates_bytes_by_direction(self):
        log = CommunicationLog()
        log.charge_upload(1, 0, 100)
        log.charge_upload(1, 1, 200)
        log.charge_download(1, 0, 50)
        assert log.uplink_bytes == 300
        assert log.downlink_bytes == 50
        assert log.total_bytes == 350

    def test_round_time_takes_slowest_node(self):
        link = LinkModel(uplink_bytes_per_s=1000, downlink_bytes_per_s=1000, latency_s=0.0)
        log = CommunicationLog(link=link)
        log.charge_upload(1, 0, 1000)  # 1 s
        log.charge_upload(1, 1, 3000)  # 3 s
        log.charge_download(1, 0, 2000)  # 2 s
        assert log.round_time(1) == pytest.approx(5.0)  # 3 up + 2 down

    def test_total_time_sums_rounds(self):
        link = LinkModel(uplink_bytes_per_s=1000, downlink_bytes_per_s=1000, latency_s=0.0)
        log = CommunicationLog(link=link)
        log.charge_upload(1, 0, 1000)
        log.charge_upload(2, 0, 2000)
        assert log.total_time == pytest.approx(3.0)

    def test_charge_returns_seconds(self):
        log = CommunicationLog(link=LinkModel(uplink_bytes_per_s=100, latency_s=0.0))
        assert log.charge_upload(1, 0, 200) == pytest.approx(2.0)

    def test_empty_round_time_is_zero(self):
        assert CommunicationLog().round_time(5) == 0.0


def record_sums(log):
    """The byte totals re-summed from the log's records."""
    up = sum(r.num_bytes for r in log.records if r.direction == "up")
    down = sum(r.num_bytes for r in log.records if r.direction == "down")
    return up, down


class TestRunningTotals:
    """The byte totals are kept as transfers are charged, and equal the
    records' sums plus whatever a checkpoint restored."""

    def test_totals_equal_record_sums_after_mixed_charges(self):
        log = CommunicationLog()
        for i, num_bytes in enumerate([120, 0, 75, 4_096, 33, 512]):
            if i % 3 == 1:
                log.charge_download(i, i, num_bytes)
            else:
                log.charge_upload(i, i, num_bytes)
            assert (log.uplink_bytes, log.downlink_bytes) == record_sums(log)
        assert log.total_bytes == sum(record_sums(log))

    def test_restore_adds_to_the_record_sums(self):
        log = CommunicationLog()
        log.charge_upload(1, 0, 100)
        log.restore_totals(1_000, 2_000)
        log.charge_download(2, 0, 30)
        log.restore_totals(5, 7)
        up, down = record_sums(log)
        assert log.uplink_bytes == up + 1_005 == 1_105
        assert log.downlink_bytes == down + 2_007 == 2_037
        with pytest.raises(ValueError, match="non-negative"):
            log.restore_totals(-1, 0)
        assert log.uplink_bytes == 1_105

    def test_log_built_with_records_starts_from_their_sums(self):
        records = [
            TransferRecord(0, 0, "up", 300, 0.1),
            TransferRecord(0, 1, "down", 40, 0.1),
            TransferRecord(1, 0, "up", 5, 0.1),
        ]
        log = CommunicationLog(records=list(records))
        assert (log.uplink_bytes, log.downlink_bytes) == (305, 40)
        log.charge_upload(2, 0, 10)
        assert (log.uplink_bytes, log.downlink_bytes) == record_sums(log)
