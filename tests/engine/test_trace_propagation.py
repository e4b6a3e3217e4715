"""Cross-process trace propagation and the unified event log.

The contract: with telemetry enabled, a parallel run produces ONE coherent
trace — worker-side ``local_train`` spans come home with the node results,
are re-parented under the round span in the parent's ring buffer, and the
event stream tells the run's whole story in order.  And observing a run
never changes it: traced results stay bit-identical to the untraced golden
traces.
"""

import numpy as np
import pytest

from repro.autodiff import fastpath
from repro.engine import ExecutorError, ParallelExecutor, RoundEngine, SerialExecutor
from repro.nn.parameters import to_vector
from repro.obs import MemorySink, Telemetry
from repro.obs.events import RunRecord

from .capture_golden import build_runners, build_workload
from .test_executors import ExplodingStrategy, NoisyConfig, NoisyStrategy

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
    def test_parallel_worker_spans_reparented_under_round(self, workload):
        fed, sources, _ = workload
        with ParallelExecutor(max_workers=3) as executor:
            result, telemetry = _traced_fit(workload, executor)
        spans = [r.to_dict() for r in telemetry.tracer.records()]
        local = [s for s in spans if s["name"] == "local_train"]

        # every sampled node gets a worker-side span in every block
        cfg_blocks = 12 // 3  # total_iterations=12, t0=3
        assert len(local) == len(sources) * cfg_blocks
        seen = {(s["attributes"]["node"], s["attributes"]["block"])
                for s in local}
        assert seen == {
            (n, b) for n in sources for b in range(cfg_blocks)
        }
        # re-parented into the parent's trace, not a detached root
        for span in local:
            assert span["path"] == "fit/round/local_steps/local_train"
            assert span["depth"] == 3
            assert span["attributes"]["worker"] is True

        # one timeline: worker spans nest inside the parent fit span
        fit = next(s for s in spans if s["name"] == "fit")
        for span in local:
            assert fit["start"] <= span["start"] <= span["end"] <= fit["end"]

        # the sink streamed the same re-parented records
        sunk = [
            r for r in telemetry.sink.records
            if r.get("type") == "span" and r["name"] == "local_train"
        ]
        assert len(sunk) == len(local)

    def test_serial_and_parallel_traces_have_same_shape(self, workload):
        _, serial_tel = _traced_fit(workload, SerialExecutor())
        with ParallelExecutor(max_workers=3) as executor:
            _, parallel_tel = _traced_fit(workload, executor)

        def shape(telemetry):
            return sorted(
                (r.name, r.path, r.attributes.get("node"),
                 r.attributes.get("block"))
                for r in telemetry.tracer.records()
            )

        # identical span tree modulo the worker marker attribute
        assert shape(serial_tel) == shape(parallel_tel)


class TestTracingIsInvisible:
    """Enabling tracing must not perturb the computation."""

    def test_traced_parallel_run_matches_golden(self, workload):
        import json
        import pathlib

        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden_traces.json").read_text()
        )[GOLDEN_NAME]
        with ParallelExecutor(max_workers=3) as executor:
            result, _ = _traced_fit(workload, executor)
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
        with ParallelExecutor(max_workers=2) as executor:
            traced, _ = _traced_fit(workload, executor)
        np.testing.assert_array_equal(
            to_vector(untraced.params), to_vector(traced.params)
        )


class TestCountersMergeBitForBit:
    """Telemetry under ParallelExecutor equals serial-mode values.

    Workload-determined counters (backwards, raw VJP calls, fl_*) must be
    identical; the plan-cache hit/miss *split* may differ (each worker has
    its own cache) but the total lookups must match.
    """

    WORKLOAD_COUNTERS = (
        "autodiff_fastpath_backwards_total",
        "autodiff_fastpath_raw_vjp_calls_total",
        "autodiff_fastpath_fused_dispatches_total",
    )

    def _counters(self, telemetry):
        out = {}
        for record in telemetry.registry.snapshot():
            if record["type"] == "counter":
                key = (record["name"], tuple(sorted(record["labels"].items())))
                out[key] = record["value"]
        return out

    def test_fastpath_and_engine_counters_match(self, workload):
        fastpath.reset_stats()
        serial_result, serial_tel = _traced_fit(workload, SerialExecutor())
        fastpath.to_registry(serial_tel.registry)
        serial_stats = fastpath.stats().as_dict()

        fastpath.reset_stats()
        with ParallelExecutor(max_workers=3) as executor:
            parallel_result, parallel_tel = _traced_fit(workload, executor)
        fastpath.to_registry(parallel_tel.registry)
        parallel_stats = fastpath.stats().as_dict()

        serial_counters = self._counters(serial_tel)
        parallel_counters = self._counters(parallel_tel)

        for name in self.WORKLOAD_COUNTERS:
            key = (name, ())
            assert serial_counters.get(key) == parallel_counters.get(key), name
        for key in serial_counters:
            if key[0].startswith("fl_"):
                assert serial_counters[key] == parallel_counters[key], key

        # plan cache totals are workload-determined even though the
        # hit/miss split is per-process
        assert (
            serial_stats["plan_hits"] + serial_stats["plan_misses"]
            == parallel_stats["plan_hits"] + parallel_stats["plan_misses"]
        )

        # logged series (loss curves) are bit-for-bit identical
        def series(telemetry):
            return sorted(
                (
                    r["name"],
                    tuple(sorted(r["labels"].items())),
                    tuple(r["steps"]),
                    tuple(r["values"]),
                )
                for r in telemetry.registry.snapshot()
                if r["type"] == "series"
            )

        assert series(serial_tel) == series(parallel_tel)
        np.testing.assert_array_equal(
            to_vector(serial_result.params), to_vector(parallel_result.params)
        )


class TestEventStream:
    def test_run_produces_ordered_lifecycle_events(self, workload):
        with ParallelExecutor(max_workers=2) as executor:
            _, telemetry = _traced_fit(workload, executor)
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
        assert start["executor"] == "ParallelExecutor"
        assert start["nodes"] == 5
        end = run.events_of("run_end")[0]
        assert end["uplink_bytes"] > 0

        for event in run.events_of("node_result"):
            assert event["duration_s"] > 0.0
            assert event["steps"] == 3

    def test_cache_hit_events_cover_fastpath_activity(self, workload):
        fastpath.reset_stats()
        with ParallelExecutor(max_workers=2) as executor:
            _, telemetry = _traced_fit(workload, executor)
        run = RunRecord.from_records(telemetry.sink.records)
        cache_events = run.events_of("cache_hit")
        assert len(cache_events) == 4  # one per block
        # Exact FedML on logistic regression takes the closed-form
        # meta-gradient kernel: every local step is one fused dispatch and
        # no backward.  Block-local counters were merged into the parent
        # stats (which also count the parent's evaluate-time work on top).
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

    @pytest.mark.parametrize("parallel", [False, True])
    def test_error_keeps_worker_traceback_and_emits_event(
        self, workload, parallel
    ):
        telemetry = Telemetry(sink=MemorySink())
        if parallel:
            with ParallelExecutor(max_workers=2) as executor:
                with pytest.raises(ExecutorError) as excinfo:
                    self._run(workload, executor, telemetry)
        else:
            with pytest.raises(ExecutorError) as excinfo:
                self._run(workload, SerialExecutor(), telemetry)
        err = excinfo.value

        # context survives the process boundary
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

    def test_parallel_traceback_without_telemetry(self, workload):
        # the traceback rides the exception itself — no telemetry needed
        with ParallelExecutor(max_workers=2) as executor:
            with pytest.raises(ExecutorError) as excinfo:
                self._run(workload, executor, None)
        assert "injected worker failure" in (
            excinfo.value.worker_traceback or ""
        )


class TestTapeProfileMerging:
    def test_parallel_profile_matches_serial_op_counts(self, workload):
        from repro.autodiff.profile import profile_ops

        fed, sources, model = workload

        def run(executor):
            strategy = NoisyStrategy(model, NoisyConfig())
            engine = RoundEngine(
                strategy,
                executor=executor,
                telemetry=Telemetry(sink=MemorySink()),
            )
            with profile_ops() as prof:
                engine.fit(fed, sources)
            return prof

        serial = run(SerialExecutor())
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run(executor)
        # NoisyStrategy does no autodiff inside local_step, but evaluate()
        # and aggregation run ops in the parent; counts must agree exactly
        assert serial.total_ops == parallel.total_ops
        assert serial.tape_length == parallel.tape_length

    def test_fedml_parallel_profile_counts_worker_ops(self, workload):
        from repro.autodiff.profile import profile_ops

        fed, sources, model = workload

        def run(executor):
            telemetry = Telemetry(sink=MemorySink())
            runner = build_runners(model, telemetry=telemetry)[GOLDEN_NAME]
            runner.executor = executor
            with profile_ops() as prof:
                runner.fit(fed, sources)
            return prof

        serial = run(SerialExecutor())
        with ParallelExecutor(max_workers=2) as executor:
            parallel = run(executor)
        # the double-backward tape built inside pool workers is shipped
        # home: op counts match the in-process run exactly
        assert serial.total_ops == parallel.total_ops
        assert serial.tape_length == parallel.tape_length
        assert serial.graph_walks == parallel.graph_walks
        for name, stats in serial.op_stats.items():
            assert parallel.op_stats[name].calls == stats.calls, name
