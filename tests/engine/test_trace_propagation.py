"""Run traces and the unified event log.

The contract: with telemetry enabled, a run produces one coherent trace —
each node's ``local_train`` span nests under its round — and the event
stream tells the run's whole story in order.  And observing a run never
changes it: traced results stay bit-identical to the untraced golden
traces.
"""

import numpy as np
import pytest

from repro.autodiff import fastpath
from repro.engine import (
    ExecutorError,
    RoundEngine,
    SerialExecutor,
    VectorizedExecutor,
)
from repro.nn.parameters import to_vector
from repro.obs import MemorySink, Telemetry
from repro.obs.events import RunRecord

from .capture_golden import build_runners, build_workload
from .test_executors import ExplodingStrategy, NoisyConfig

GOLDEN_NAME = "fedml"


@pytest.fixture(scope="module")
def workload():
    return build_workload()


def _traced_fit(workload, executor, name=GOLDEN_NAME):
    fed, sources, model = workload
    telemetry = Telemetry(sink=MemorySink())
    runner = build_runners(model, telemetry=telemetry)[name]
    runner.executor = executor
    result = runner.fit(fed, sources)
    telemetry.close()
    return result, telemetry


class TestSingleCoherentTrace:
    def test_local_train_spans_nest_under_round(self, workload):
        _, sources, _ = workload
        _, telemetry = _traced_fit(workload, SerialExecutor())
        spans = [r.to_dict() for r in telemetry.tracer.records()]
        local = [s for s in spans if s["name"] == "local_train"]

        # every sampled node gets a span in every block
        cfg_blocks = 12 // 3  # total_iterations=12, t0=3
        assert len(local) == len(sources) * cfg_blocks
        seen = {(s["attributes"]["node"], s["attributes"]["block"])
                for s in local}
        assert seen == {
            (n, b) for n in sources for b in range(cfg_blocks)
        }
        for span in local:
            assert span["path"] == "fit/round/local_steps/local_train"
            assert span["depth"] == 3

        # one timeline: node spans nest inside the fit span
        fit = next(s for s in spans if s["name"] == "fit")
        for span in local:
            assert fit["start"] <= span["start"] <= span["end"] <= fit["end"]

        # the sink streamed the same records
        sunk = [
            r for r in telemetry.sink.records
            if r.get("type") == "span" and r["name"] == "local_train"
        ]
        assert len(sunk) == len(local)


class TestTracingIsInvisible:
    """Enabling tracing must not perturb the computation."""

    def test_traced_run_matches_golden(self, workload):
        import json
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden_traces.json").read_text()
        )[GOLDEN_NAME]
        result, _ = _traced_fit(workload, SerialExecutor())
        np.testing.assert_allclose(
            to_vector(result.params),
            np.array(golden["final_params"]),
            rtol=1e-9,
            atol=0,
        )
        assert result.platform.comm_log.uplink_bytes == golden["uplink_bytes"]
        assert [n.local_steps for n in result.nodes] == golden["local_steps"]

    def test_traced_equals_untraced_bitwise(self, workload):
        fed, sources, model = workload
        untraced = build_runners(model)[GOLDEN_NAME].fit(fed, sources)
        traced, _ = _traced_fit(workload, SerialExecutor())
        np.testing.assert_array_equal(
            to_vector(untraced.params), to_vector(traced.params)
        )


class TestEventStream:
    def test_run_produces_ordered_lifecycle_events(self, workload):
        _, telemetry = _traced_fit(workload, SerialExecutor())
        run = RunRecord.from_records(telemetry.sink.records)

        seqs = [e["seq"] for e in run.events]
        assert seqs == sorted(seqs)
        kinds = [e["kind"] for e in run.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("round_start") == 4
        assert kinds.count("round_end") == 4
        assert kinds.count("node_result") == 5 * 4

        start = run.events_of("run_start")[0]
        assert start["algorithm"] == GOLDEN_NAME
        assert start["executor"] == "SerialExecutor"
        assert start["nodes"] == 5
        end = run.events_of("run_end")[0]
        assert end["uplink_bytes"] > 0

        for event in run.events_of("node_result"):
            assert event["duration_s"] > 0.0
            assert event["steps"] == 3

    def test_cache_hit_events_cover_fastpath_activity(self, workload):
        fastpath.reset_stats()
        _, telemetry = _traced_fit(workload, SerialExecutor())
        run = RunRecord.from_records(telemetry.sink.records)
        cache_events = run.events_of("cache_hit")
        assert len(cache_events) == 4  # one per block
        # Exact FedML on logistic regression takes the closed-form
        # meta-gradient kernel: every local step is one fused dispatch and
        # no backward.  The run's stats also count evaluate-time work.
        per_block = len(workload[1]) * 3  # sampled nodes x t0 local steps
        assert all(e["fused_dispatches"] == per_block for e in cache_events)
        assert all(e["backwards"] == 0 for e in cache_events)
        total_fused = sum(e["fused_dispatches"] for e in cache_events)
        assert 0 < total_fused <= fastpath.stats().fused_dispatches


class TestWorkerErrorObservability:
    def _run(self, workload, executor, telemetry):
        fed, sources, model = workload
        strategy = ExplodingStrategy(model, NoisyConfig())
        return RoundEngine(
            strategy, executor=executor, telemetry=telemetry
        ).fit(fed, sources)

    @pytest.mark.parametrize(
        "executor_cls", [SerialExecutor, VectorizedExecutor]
    )
    def test_error_keeps_worker_traceback_and_emits_event(
        self, workload, executor_cls
    ):
        telemetry = Telemetry(sink=MemorySink())
        with pytest.raises(ExecutorError) as excinfo:
            self._run(workload, executor_cls(), telemetry)
        err = excinfo.value

        assert err.node_id == 3
        assert err.block_index == 0
        assert isinstance(err.__cause__, ValueError)
        assert err.worker_traceback is not None
        assert "ValueError: injected worker failure" in err.worker_traceback
        assert "local_step" in err.worker_traceback

        run = RunRecord.from_records(telemetry.sink.records)
        errors = run.events_of("node_error")
        assert errors and errors[0]["node"] == 3
        assert "injected worker failure" in errors[0]["error"]
        assert "local_step" in (errors[0]["traceback"] or "")

    def test_traceback_without_telemetry(self, workload):
        # the traceback rides the exception itself — no telemetry needed
        with pytest.raises(ExecutorError) as excinfo:
            self._run(workload, SerialExecutor(), None)
        assert "injected worker failure" in (
            excinfo.value.worker_traceback or ""
        )
