"""The perf-regression gate: seeding, tolerance bands, CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.obs.regress import (
    BASELINE_VERSION,
    check_result,
    gated_metrics,
    load_baselines,
    run_gate,
    save_baselines,
)

ENGINE_RESULT = {
    "nodes": 8,
    "cpus": 4,
    "serial_seconds": 2.0,
    "vectorized_seconds": 1.0,
    "serial_rounds_per_sec": 5.0,
    "vectorized_rounds_per_sec": 10.0,
    "speedup": 2.0,
    "serial_bit_reproducible": True,
}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestGatedMetrics:
    def test_selects_flags_ratios_and_throughput(self):
        spec = gated_metrics(ENGINE_RESULT)
        assert spec["serial_bit_reproducible"] == {
            "value": True, "direction": "exact"
        }
        assert spec["speedup"]["direction"] == "higher"
        assert "serial_rounds_per_sec" in spec
        # config echoes and raw timings are informational, never gated
        assert "nodes" not in spec
        assert "serial_seconds" not in spec


class TestCheckResult:
    def _entry(self):
        return {"metrics": gated_metrics(ENGINE_RESULT)}

    def test_identical_results_pass(self):
        assert check_result("b", ENGINE_RESULT, self._entry()) == []

    def test_within_tolerance_passes(self):
        current = dict(ENGINE_RESULT, speedup=1.2)  # floor is 2.0 * 0.5
        assert check_result("b", current, self._entry()) == []

    def test_slowdown_past_tolerance_fails(self):
        current = dict(ENGINE_RESULT, speedup=0.6)
        failures = check_result("b", current, self._entry())
        assert len(failures) == 1
        assert failures[0].metric == "speedup"
        assert "below floor" in failures[0].message

    def test_flag_flip_fails_exactly(self):
        current = dict(ENGINE_RESULT, serial_bit_reproducible=False)
        failures = check_result("b", current, self._entry())
        assert [f.metric for f in failures] == ["serial_bit_reproducible"]

    def test_missing_metric_is_a_regression(self):
        current = {k: v for k, v in ENGINE_RESULT.items() if k != "speedup"}
        failures = check_result("b", current, self._entry())
        assert any("missing" in f.message for f in failures)

    def test_lower_direction_gates_ceilings(self):
        entry = {
            "metrics": {
                "p99_latency": {
                    "value": 10.0, "direction": "lower", "tolerance": 0.2
                }
            }
        }
        assert check_result("b", {"p99_latency": 11.0}, entry) == []
        failures = check_result("b", {"p99_latency": 13.0}, entry)
        assert "above ceiling" in failures[0].message

    def test_non_finite_values_are_regressions(self):
        """Regression: ``nan < floor`` and ``nan > ceiling`` are both
        False, so a NaN used to pass ``higher`` and ``lower`` gates alike."""
        entry = {
            "metrics": {
                "speedup": {
                    "value": 2.0, "direction": "higher", "tolerance": 0.5
                },
                "p99_latency": {
                    "value": 10.0, "direction": "lower", "tolerance": 0.2
                },
            }
        }
        nan = float("nan")
        failures = check_result(
            "b", {"speedup": nan, "p99_latency": nan}, entry
        )
        assert sorted(f.metric for f in failures) == ["p99_latency", "speedup"]
        assert all("non-finite" in f.message for f in failures)


class TestRunGate:
    def test_seeds_baseline_on_first_contact(self, tmp_path):
        bench = _write(tmp_path / "BENCH_engine.json", ENGINE_RESULT)
        baseline = str(tmp_path / "baselines.json")
        failures, lines = run_gate([bench], baseline)
        assert failures == []
        assert any("seeded" in line for line in lines)
        data = load_baselines(baseline)
        assert data["version"] == BASELINE_VERSION
        assert "BENCH_engine.json" in data["benchmarks"]

        # second run checks against the seeded values and passes
        failures, lines = run_gate([bench], baseline)
        assert failures == []
        assert any("within tolerance" in line for line in lines)

    def test_detects_synthetic_slowdown(self, tmp_path):
        bench = _write(tmp_path / "BENCH_engine.json", ENGINE_RESULT)
        baseline = str(tmp_path / "baselines.json")
        run_gate([bench], baseline)

        slowed = dict(
            ENGINE_RESULT,
            speedup=ENGINE_RESULT["speedup"] / 3.0,
            vectorized_rounds_per_sec=(
                ENGINE_RESULT["vectorized_rounds_per_sec"] / 3.0
            ),
        )
        _write(tmp_path / "BENCH_engine.json", slowed)
        failures, _ = run_gate([bench], baseline)
        assert {f.metric for f in failures} == {
            "speedup", "vectorized_rounds_per_sec"
        }

    def test_update_rewrites_baseline(self, tmp_path):
        bench = _write(tmp_path / "BENCH_engine.json", ENGINE_RESULT)
        baseline = str(tmp_path / "baselines.json")
        run_gate([bench], baseline)
        slowed = dict(ENGINE_RESULT, speedup=0.5)
        _write(tmp_path / "BENCH_engine.json", slowed)
        failures, _ = run_gate([bench], baseline, update=True)
        assert failures == []
        data = load_baselines(baseline)
        metrics = data["benchmarks"]["BENCH_engine.json"]["metrics"]
        assert metrics["speedup"]["value"] == 0.5

    def test_update_on_new_bench_reports_seeded(self, tmp_path):
        """Regression: the verb was chosen after the baseline write, so
        ``--update`` on a bench not yet in the baseline said "updated"."""
        bench = _write(tmp_path / "BENCH_engine.json", ENGINE_RESULT)
        baseline = str(tmp_path / "baselines.json")
        _, lines = run_gate([bench], baseline, update=True)
        assert lines[0].startswith("BENCH_engine.json: seeded baseline")
        _, lines = run_gate([bench], baseline, update=True)
        assert lines[0].startswith("BENCH_engine.json: updated baseline")

    def test_missing_bench_file_fails(self, tmp_path):
        baseline = str(tmp_path / "baselines.json")
        failures, _ = run_gate([str(tmp_path / "absent.json")], baseline)
        assert failures and "not found" in failures[0].message

    def test_newer_baseline_version_is_rejected(self, tmp_path):
        baseline = str(tmp_path / "baselines.json")
        save_baselines(
            baseline,
            {"version": BASELINE_VERSION + 1, "benchmarks": {}},
        )
        with pytest.raises(ValueError, match="newer"):
            load_baselines(baseline)


class TestBenchCheckCli:
    def test_exit_codes(self, tmp_path, capsys):
        bench = _write(tmp_path / "BENCH_engine.json", ENGINE_RESULT)
        baseline = str(tmp_path / "baselines.json")
        assert main(["bench-check", bench, "--baseline", baseline]) == 0
        assert main(["bench-check", bench, "--baseline", baseline]) == 0

        _write(
            tmp_path / "BENCH_engine.json",
            dict(ENGINE_RESULT, speedup=0.1, serial_bit_reproducible=False),
        )
        assert main(["bench-check", bench, "--baseline", baseline]) == 1
        err = capsys.readouterr().err
        assert "regression" in err
