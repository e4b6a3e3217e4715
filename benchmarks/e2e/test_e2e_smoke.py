"""Smoke test of the end-to-end benchmark harness (tiny sizes, fast).

Not collected by the tier-1 suite (it collects ``tests/`` only); run it
explicitly::

    python -m pytest -q benchmarks/e2e/test_e2e_smoke.py

It runs ``bench_e2e.py --all --smoke --runs 1`` once and checks that every
metric ``BENCHMARK.json`` names appears for every workload with its unit,
that each trace JSONL parses, and that the layers' self times add up to
the traced ``train_s``.  It says nothing about speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = HERE / "bench_e2e.py"
LAYERS = ("data", "engine", "strategies", "maml", "autodiff", "attacks",
          "platform", "fleet")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "all.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--all", "--smoke", "--runs", "1",
         "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return out, json.loads(out.read_text(encoding="utf-8"))


def test_every_metric_reported_with_its_unit(smoke_set):
    _, payload = smoke_set
    bench = _bench()
    for workload in (w["name"] for w in bench["workloads"]):
        (timed,) = payload["runs"][workload]
        traced = payload["traced"][workload]
        for line, catalogue in (
            (timed, bench["end_to_end"]), (traced, bench["per_layer"]),
        ):
            assert line["correct"], (workload, line)
            assert line["failed"] == 0 and line["attempted"] >= 1
            assert set(line["metrics"]) == {m["name"] for m in catalogue}
            for metric in catalogue:
                reported = line["metrics"][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], float)
        for metric in bench["end_to_end"]:
            assert timed["metrics"][metric["name"]]["value"] != 0.0, (
                workload, metric["name"])


def test_trace_jsonl_parses(smoke_set):
    out, payload = smoke_set
    for workload in payload["traced"]:
        path = out.parent / f"trace_{workload}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans, workload
        for span in spans:
            assert span["layer"] in LAYERS + ("obs",)
            assert span["end"] >= span["start"]
            assert -1 <= span["parent"] < span["id"]


def test_layer_self_times_sum_to_traced_train_s(smoke_set):
    _, payload = smoke_set
    for workload, line in payload["traced"].items():
        metrics = line["metrics"]
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        traced_train = metrics["obs.traced_train_s"]["value"]
        assert total == pytest.approx(traced_train, rel=0.02), workload
        assert metrics["autodiff.compiled_runs"]["value"] == 0.0


def test_single_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--workload", "fleet_1m", "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload",
         "fedml_synth", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
