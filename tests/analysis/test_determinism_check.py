"""Runtime determinism checker: ledger, bisector, planter, CLI.

Also hosts the regression tests for the latent DET findings fixed in our
own tree (round-engine identity keys, communication-log set iteration):
the proof obligation is bit-identical traces across reruns.
"""

import json

import numpy as np
import pytest

from repro.analysis.determinism import (
    EntropyPlanter,
    LedgerRng,
    RngLedger,
    StreamRecord,
    install_ledger,
    uninstall_ledger,
)
from repro.analysis.divergence import (
    DivergencePoint,
    RunFingerprint,
    compare_runs,
)
from repro.cli import _determinism_run, build_parser, main
from repro.federated.network import CommunicationLog, TransferRecord
from repro.utils.rng import instrument_node_rng, set_node_rng_hook

SMALL = [
    "check-determinism", "--nodes", "6", "--iterations", "10",
    "--t0", "5", "--eval-every", "5",
]


@pytest.fixture(autouse=True)
def _no_leaked_hook():
    yield
    set_node_rng_hook(None)


class TestLedger:
    def test_fingerprint_is_order_and_shape_sensitive(self):
        a = StreamRecord(block=0, node=1)
        b = StreamRecord(block=0, node=1)
        a.record("normal", np.zeros(3))
        a.record("integers", 4)
        b.record("integers", 4)
        b.record("normal", np.zeros(3))
        assert a.draws == b.draws == 2
        assert a.fingerprint != b.fingerprint

        c = StreamRecord(block=0, node=1)
        c.record("normal", np.zeros(4))
        c.record("integers", 4)
        assert c.fingerprint != a.fingerprint  # shape differs

    def test_records_sorted_and_totals(self):
        ledger = RngLedger()
        ledger.stream(1, 2).record("normal", 0.0)
        ledger.stream(0, 5).record("normal", 0.0)
        ledger.stream(0, 1).record("normal", 0.0)
        keys = [(r.block, r.node) for r in ledger.records()]
        assert keys == [(0, 1), (0, 5), (1, 2)]
        assert ledger.total_draws == 3

    def test_ledger_rng_is_draw_transparent(self):
        record = StreamRecord(block=0, node=0)
        plain = np.random.default_rng(42)
        wrapped = LedgerRng(np.random.default_rng(42), record)
        np.testing.assert_array_equal(
            plain.normal(size=5), wrapped.normal(size=5)
        )
        assert plain.integers(10) == wrapped.integers(10)
        # and afterwards both streams are in the same state
        assert plain.random() == wrapped.random()
        assert record.draws == 3  # .random() counted too

    def test_install_hook_wraps_instrumented_generators(self):
        ledger = install_ledger()
        try:
            rng = instrument_node_rng(np.random.default_rng(1), 3, 7)
            rng.normal(size=2)
        finally:
            uninstall_ledger()
        records = ledger.records()
        assert [(r.block, r.node, r.draws) for r in records] == [(3, 7, 1)]
        # after uninstall, generators pass through unchanged
        plain = instrument_node_rng(np.random.default_rng(1), 0, 0)
        assert isinstance(plain, np.random.Generator)

    def test_emit_events_and_registry_export(self):
        events = []

        class FakeEvents:
            def emit(self, kind, **fields):
                events.append((kind, fields))

        ledger = RngLedger()
        ledger.stream(0, 1).record("normal", 0.0)
        ledger.emit_events(FakeEvents())
        assert events[0][0] == "rng_ledger"
        assert events[0][1]["block"] == 0
        assert events[0][1]["node"] == 1
        assert events[0][1]["draws"] == 1


class TestCompareRuns:
    @staticmethod
    def fp(label="run", **overrides):
        base = dict(
            ledger={(0, 1): {"draws": 3, "fingerprint": "aa"}},
            node_results={(0, 1): {"params_fp": "x", "steps": 5}},
            rounds={0: 2},
            history=[{"metric": "global_loss", "values": (1.0, 0.5)}],
            final_params_fp="ff",
        )
        base.update(overrides)
        return RunFingerprint(label=label, **base)

    def test_identical_runs_compare_equal(self):
        assert compare_runs(self.fp("a"), self.fp("b")) is None

    def test_ledger_divergence_wins_within_a_block(self):
        b = self.fp(
            "b",
            ledger={(0, 1): {"draws": 4, "fingerprint": "aa"}},
            node_results={(0, 1): {"params_fp": "y", "steps": 5}},
        )
        point = compare_runs(self.fp("a"), b)
        assert point.metric == "rng.draws"
        assert (point.round, point.block, point.node) == (0, 0, 1)

    def test_earliest_block_wins(self):
        a = self.fp(
            "a",
            ledger={
                (0, 1): {"draws": 3, "fingerprint": "aa"},
                (1, 1): {"draws": 3, "fingerprint": "aa"},
            },
        )
        b = self.fp(
            "b",
            ledger={
                (0, 1): {"draws": 3, "fingerprint": "aa"},
                (1, 1): {"draws": 9, "fingerprint": "zz"},
            },
        )
        point = compare_runs(a, b)
        assert point.block == 1

    def test_node_fingerprint_divergence_names_the_node(self):
        b = self.fp("b", node_results={(0, 1): {"params_fp": "y", "steps": 5}})
        point = compare_runs(self.fp("a"), b)
        assert point.metric == "node.params_fp"
        assert point.node == 1

    def test_participants_then_history_then_final(self):
        point = compare_runs(self.fp("a"), self.fp("b", rounds={0: 3}))
        assert point.metric == "round.participants"

        b = self.fp(
            "b", history=[{"metric": "global_loss", "values": (1.0, 0.7)}]
        )
        assert compare_runs(self.fp("a"), b).metric == "history.values"

        assert (
            compare_runs(self.fp("a"), self.fp("b", final_params_fp="00")).metric
            == "final.params_fp"
        )

    def test_from_records_parses_event_stream(self):
        records = [
            {"type": "event", "v": 1, "seq": 0, "kind": "round_end",
             "block": 0, "t": 5, "participants": 4},
            {"type": "event", "v": 1, "seq": 1, "kind": "node_result",
             "block": 0, "node": 2, "steps": 5, "params_fp": "ab"},
            {"type": "event", "v": 1, "seq": 2, "kind": "rng_ledger",
             "block": 0, "node": 2, "draws": 7, "fingerprint": "cd"},
        ]
        fp = RunFingerprint.from_records(records, label="x")
        assert fp.rounds == {0: 4}
        assert fp.node_results[(0, 2)]["params_fp"] == "ab"
        assert fp.ledger[(0, 2)]["draws"] == 7
        assert fp.blocks() == [0]

    def test_render_names_the_coordinate(self):
        point = DivergencePoint(1, 1, 3, "node.params_fp", "a", "b")
        text = point.render()
        assert "round 1" in text and "block 1" in text and "node 3" in text


class TestEntropyPlanter:
    def test_forwards_and_perturbs_only_the_target(self):
        class Node:
            def __init__(self, node_id):
                self.node_id = node_id
                from repro.autodiff import Tensor

                self.params = {"w": Tensor(np.zeros(3))}

        class Strategy:
            def __init__(self):
                self.steps = []

            def local_step(self, node):
                self.steps.append(node.node_id)
                return 0.0

            def on_block_end(self):
                return None

            def evaluate(self):
                return "eval"

        inner = Strategy()
        planter = EntropyPlanter(inner, block=1, node=7)
        assert planter.evaluate() == "eval"  # non-hooks forward

        target, other = Node(7), Node(8)
        planter.local_step(target)  # block 0: untouched
        assert np.all(np.asarray(target.params["w"].data) == 0)
        planter.on_block_end()
        planter.local_step(other)
        planter.local_step(target)  # block 1, node 7: perturbed
        assert np.all(np.asarray(other.params["w"].data) == 0)
        assert np.any(np.asarray(target.params["w"].data) != 0)
        assert inner.steps == [7, 8, 7]


class TestCheckDeterminismCli:
    def test_clean_config_passes_serial_double_run(self, capsys):
        assert main(SMALL + ["--algorithm", "fedml"]) == 0
        out = capsys.readouterr().out
        assert "fedml serial-vs-serial: identical" in out

    def test_planted_entropy_is_localized(self, capsys):
        code = main(
            SMALL
            + [
                "--algorithm", "fedml", "--compare", "serial",
                "--plant-entropy", "block=1,node=3", "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        divergence = payload["comparisons"][0]["divergence"]
        assert divergence["block"] == 1
        assert divergence["node"] == 3
        assert divergence["metric"] in ("node.params_fp", "rng.draws")

    def test_ledger_artifact_written(self, tmp_path, capsys):
        out_path = tmp_path / "ledger.jsonl"
        assert (
            main(
                SMALL
                + [
                    "--algorithm", "fedavg", "--compare", "serial",
                    "--ledger-out", str(out_path),
                ]
            )
            == 0
        )
        lines = out_path.read_text().strip().splitlines()
        # one stream per (block, node) binding — the current strategies are
        # full-batch (zero draws), so the artifact proves binding coverage
        # and ordering rather than draw volume
        assert len(lines) > 1
        rows = [json.loads(line) for line in lines]
        assert all(row["type"] == "rng_ledger" for row in rows)
        assert all(row["algorithm"] == "fedavg" for row in rows)
        keys = [(row["block"], row["node"]) for row in rows]
        assert keys == sorted(keys)
        assert all("fingerprint" in row for row in rows)

    def test_vectorized_ledger_has_one_row_per_binding(
        self, tmp_path, capsys
    ):
        def ledger_keys(mode):
            out_path = tmp_path / f"{mode}.jsonl"
            args = ["--algorithm", "fedml", "--compare", mode]
            assert main(SMALL + args + ["--ledger-out", str(out_path)]) == 0
            rows = [
                json.loads(line)
                for line in out_path.read_text().strip().splitlines()
            ]
            return [(row["block"], row["node"]) for row in rows]

        # the vectorized executor binds every node generator through the
        # same hook as the serial one: one row per (block, node) binding
        keys = ledger_keys("vectorized")
        assert len(keys) > 1
        assert keys == sorted(set(keys))
        assert keys == ledger_keys("serial")

    def test_vectorized_ledger_divergence_is_localized(self):
        args = build_parser().parse_args(
            SMALL + ["--algorithm", "fedml", "--compare", "vectorized"]
        )
        first, _ = _determinism_run(args, "fedml", "vectorized", "a")
        second, _ = _determinism_run(args, "fedml", "vectorized", "b")
        assert first.ledger and compare_runs(first, second) is None

        block, node = sorted(second.ledger)[-1]
        second.ledger[(block, node)] = dict(
            second.ledger[(block, node)], fingerprint="0" * 16
        )
        point = compare_runs(first, second)
        assert (point.block, point.node) == (block, node)
        assert point.metric == "rng.fingerprint"

    def test_malformed_plant_spec_is_a_usage_error(self, capsys):
        assert main(SMALL + ["--plant-entropy", "oops"]) == 2


class TestLatentFixRegressions:
    def test_robust_fedml_rerun_bit_identical(self, capsys):
        """The round engine resynchronizes non-participants via node_id
        (not id()): reruns — including the subset-selecting robust
        strategy — must stay bit-identical."""
        assert (
            main(
                SMALL
                + [
                    "--algorithm", "robust-fedml", "--compare", "serial",
                    "--ta", "2", "--n0", "1", "--r-max", "1",
                ]
            )
            == 0
        )
        assert "identical" in capsys.readouterr().out

    def test_total_time_independent_of_record_order(self):
        records = [
            TransferRecord(2, 0, "up", 1000, 0.31),
            TransferRecord(0, 0, "up", 1000, 0.17),
            TransferRecord(1, 0, "up", 1000, 0.23),
        ]
        forward = CommunicationLog(records=list(records))
        scrambled = CommunicationLog(records=list(reversed(records)))
        assert forward.total_time == scrambled.total_time
        # exact float equality: summation happens in sorted round order
        expected = 0.0
        for value in (0.17, 0.23, 0.31):
            expected += forward.link.latency_s * 0 + value
        assert forward.total_time == pytest.approx(expected)
