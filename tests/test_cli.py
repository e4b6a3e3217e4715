"""Tests for the command-line interface."""

import json

import pytest

from repro.autodiff import fastpath
from repro.cli import _algorithm_config, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.algorithm == "fedml"
        assert args.dataset == "synthetic"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--algorithm", "sgd"])


class TestStatsCommand:
    def test_synthetic_stats_text(self, capsys):
        assert main(["stats", "--dataset", "synthetic", "--nodes", "10"]) == 0
        out = capsys.readouterr().out
        assert "Synthetic" in out
        assert "10" in out

    def test_stats_json(self, capsys):
        assert (
            main(["stats", "--dataset", "mnist", "--nodes", "8", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 8
        assert payload["name"] == "MNIST-like"


class TestTrainCommand:
    COMMON = [
        "train", "--nodes", "10", "--iterations", "10", "--t0", "5",
        "--adapt-steps", "2", "--eval-every", "1",
    ]

    @pytest.mark.parametrize(
        "algorithm",
        ["fedml", "fedavg", "fedprox", "reptile", "meta-sgd"],
    )
    def test_each_algorithm_runs(self, algorithm, capsys):
        assert main(self.COMMON + ["--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert algorithm in out
        assert "target acc" in out

    def test_adml_runs(self, capsys):
        argv = self.COMMON + [
            "--algorithm", "adml", "--dataset", "mnist", "--epsilon", "0.05",
        ]
        assert main(argv) == 0
        assert "adml" in capsys.readouterr().out

    def test_robust_fedml_runs(self, capsys):
        argv = self.COMMON + [
            "--algorithm", "robust-fedml", "--dataset", "mnist",
            "--ta", "2", "--n0", "1", "--r-max", "1", "--nu", "0.5",
        ]
        assert main(argv) == 0
        assert "robust-fedml" in capsys.readouterr().out

    def test_no_fastpath_holds_through_the_adaptation_table(self, capsys):
        """No kernel and no fused op in fit() or in the eq.-6 adaptation
        table; the switch is back on afterwards."""
        assert main(self.COMMON + ["--no-fastpath", "--json"]) == 0
        assert fastpath.stats().fused_dispatches == 0
        assert fastpath.enabled()
        assert len(json.loads(capsys.readouterr().out)["adaptation_losses"]) == 3

    def test_json_output_shape(self, capsys):
        assert main(self.COMMON + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "fedml"
        assert len(payload["adaptation_losses"]) == 3  # steps 0..2
        assert payload["final_loss"] <= payload["initial_loss"]
        assert payload["uplink_bytes"] > 0


class TestFleetSimCommand:
    SMALL = [
        "fleet-sim", "--fleet-size", "2000", "--sampled", "8",
        "--rounds", "4", "--local-steps", "2", "--buffer-size", "4",
    ]

    def test_json_run_reports_residency_bound(self, capsys):
        assert main(self.SMALL + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet_size"] == 2000
        assert payload["sampled_per_round"] == 8
        assert payload["resident_peak"] <= payload["resident_bound"]
        assert payload["updates_aggregated"] > 0
        assert payload["uplink_bytes"] > 0
        assert payload["sim_clock_s"] > 0

    def test_fedml_algorithm_runs(self, capsys):
        argv = self.SMALL + ["--algorithm", "fedml", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "fedml"

    def test_kill_exits_3_and_resume_completes(self, tmp_path, capsys):
        ckpt = str(tmp_path / "fleet.ckpt")
        argv = self.SMALL + [
            "--faults", "kill:block=2", "--checkpoint", ckpt, "--json",
        ]
        assert main(argv) == 3
        assert "resume" in capsys.readouterr().err.lower()
        assert main(argv + ["--resume"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 4

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--eval-every", "0"], "eval_every"),
            (["--staleness-alpha", "nan"], "staleness_alpha"),
            (["--round-timeout", "0"], "round_timeout_s"),
            (["--eval-sample", "0"], "eval_sample"),
            (["--checkpoint-every", "0"], "checkpoint_every"),
        ],
    )
    def test_rejected_knob_exits_2_before_any_round(
        self, flags, field, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(
            "repro.federated.fleet.FleetSimulator.run", no_training
        )
        assert main(self.SMALL + flags) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and field in line


class TestFaultSpecValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--nodes", "5", "--iterations", "5"],
            [
                "fleet-sim", "--fleet-size", "1000", "--sampled", "8",
                "--rounds", "2",
            ],
        ],
    )
    def test_out_of_range_rate_exits_before_training(
        self, argv, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("repro.engine.RoundEngine.fit", no_training)
        monkeypatch.setattr(
            "repro.federated.fleet.FleetSimulator.run", no_training
        )
        assert main(argv + ["--faults", "drop:rate=1.5"]) == 2
        assert "rate must be in [0, 1]" in capsys.readouterr().err


class TestHyperParameterValidation:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--beta", "-1"], "learning rates must be positive"),
            (["--t0", "0"], "t0 must be >= 1"),
            (["--algorithm", "robust-fedml", "--t0", "-1"], "t0 must be >= 1"),
            *[
                (
                    ["--algorithm", algorithm, "--first-order"],
                    f"--first-order does not apply to {algorithm} (only to "
                    "fedml, robust-fedml, adml)",
                )
                for algorithm in ("fedavg", "fedprox", "reptile", "meta-sgd")
            ],
            *[
                (["--algorithm", algorithm, "--eval-every", "0"], message)
                for algorithm, message in (
                    ("fedml", "eval_every must be >= 1"),
                    ("robust-fedml", "eval_every must be >= 1"),
                    ("fedavg", "t0, total_iterations and eval_every must be >= 1"),
                    ("fedprox", "t0, total_iterations and eval_every must be >= 1"),
                    ("reptile", "inner_steps, t0, total_iterations and "
                     "eval_every must be >= 1"),
                    ("meta-sgd", "t0, total_iterations, k and eval_every must "
                     "be >= 1"),
                    ("adml", "t0, total_iterations, k and eval_every must be "
                     ">= 1"),
                )
            ],
        ],
    )
    def test_rejected_value_exits_2_before_training(
        self, flags, message, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("repro.engine.RoundEngine.fit", no_training)
        argv = ["train", "--nodes", "5", "--iterations", "5", *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


class TestFirstOrderFlag:
    @pytest.mark.parametrize("algorithm", ["fedml", "robust-fedml", "adml"])
    def test_flag_reaches_every_config_that_has_it(self, algorithm):
        parser = build_parser()
        for flags, expected in (([], False), (["--first-order"], True)):
            args = parser.parse_args(["train", "--algorithm", algorithm, *flags])
            assert _algorithm_config(args)[1].first_order is expected

    def test_first_order_changes_robust_fedml_output(self, capsys):
        argv = [
            "train", "--algorithm", "robust-fedml", "--nodes", "5",
            "--iterations", "4", "--t0", "2", "--ta", "2", "--n0", "1",
            "--r-max", "1", "--adapt-steps", "1", "--eval-every", "2",
            "--json",
        ]
        outputs = []
        for extra in ([], ["--first-order"]):
            assert main(argv + extra) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["final_loss"] != outputs[1]["final_loss"]

    def test_check_determinism_rejects_it_before_any_run(
        self, monkeypatch, capsys
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("repro.engine.RoundEngine.fit", no_training)
        argv = [
            "check-determinism", "--algorithm", "all", "--first-order",
            "--nodes", "4", "--iterations", "4",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --first-order does not apply to fedavg (only to fedml, "
            "robust-fedml, adml)"
        ]
