"""Kill/resume bit-exactness and the fault-tolerance acceptance criteria."""

import json
import pathlib

import numpy as np
import pytest

from repro.core import FedML, FedMLConfig
from repro.engine import EngineOptions, VectorizedExecutor
from repro.faults import (
    CorruptSchedule,
    CrashSchedule,
    FaultPlan,
    FlakyWorkerSchedule,
    KillSchedule,
    ResiliencePolicy,
    RunInterrupted,
)
from repro.nn.parameters import to_vector
from repro.obs import MemorySink, Telemetry

from ..engine.capture_golden import build_runners, build_workload

GOLDEN = json.loads(
    (
        pathlib.Path(__file__).resolve().parent.parent
        / "engine"
        / "golden_traces.json"
    ).read_text()
)


def build_runner(name, model, **kwargs):
    """A golden facade, or FOMAML (``"fomaml"``: FedML with
    ``first_order``) at the same configuration."""
    if name == "fomaml":
        config = FedMLConfig(
            alpha=0.05, beta=0.05, k=3, t0=3, total_iterations=12, seed=0,
            first_order=True,
        )
        return FedML(model, config, **kwargs)
    return build_runners(model, **kwargs)[name]


def run(name, options=None, resume=False, telemetry=None, executor=None):
    fed, sources, model = build_workload()
    kwargs = {}
    if options is not None:
        kwargs["engine_options"] = options
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    if executor is not None:
        kwargs["executor"] = executor
    runner = build_runner(name, model, **kwargs)
    return runner.fit(fed, sources, resume=resume)


def assert_same_run(result, baseline):
    np.testing.assert_array_equal(
        to_vector(result.params), to_vector(baseline.params)
    )
    if hasattr(baseline, "log_alpha"):  # Meta-SGD's learned log-rates
        np.testing.assert_array_equal(
            to_vector(result.log_alpha), to_vector(baseline.log_alpha)
        )
    assert result.history.records == baseline.history.records
    assert (
        result.platform.comm_log.uplink_bytes
        == baseline.platform.comm_log.uplink_bytes
    )
    assert [n.local_steps for n in result.nodes] == [
        n.local_steps for n in baseline.nodes
    ]


#: the runs the meta kernel serves: exact, first-order, D^adv, learned rates
KERNEL_RUNS = ["fedml", "robust-fedml", "fomaml", "meta-sgd"]


class TestKillAndResume:
    @pytest.mark.parametrize("name", KERNEL_RUNS)
    def test_resume_matches_uninterrupted_run(self, name, tmp_path):
        """robust-fedml also exercises checkpointed strategy extras (the
        adversarial datasets) and checkpointed strategy state."""
        ckpt = str(tmp_path / "run.ckpt")
        options = EngineOptions(
            faults=FaultPlan([KillSchedule(block=1)]),
            checkpoint_path=ckpt,
        )
        with pytest.raises(RunInterrupted) as excinfo:
            run(name, options)
        assert excinfo.value.block == 1
        assert excinfo.value.checkpoint_path == ckpt

        resumed = run(name, options, resume=True)
        baseline = run(name)
        assert_same_run(resumed, baseline)

    @pytest.mark.parametrize("name", KERNEL_RUNS)
    def test_vectorized_resume_matches_uninterrupted_serial_run(
        self, name, tmp_path
    ):
        """Killed and resumed on the vectorized executor, a run equals the
        uninterrupted serial run.  At the golden config nodes 1 and 2
        stack; robust-fedml's checkpoint after block 1 holds their
        ``D^adv``, which the resumed run restores into that stacked group."""
        ckpt = str(tmp_path / "run.ckpt")
        options = EngineOptions(
            faults=FaultPlan([KillSchedule(block=1)]),
            checkpoint_path=ckpt,
        )
        with pytest.raises(RunInterrupted):
            run(name, options, executor=VectorizedExecutor())
        resumed = run(name, options, resume=True, executor=VectorizedExecutor())
        assert_same_run(resumed, run(name))
        fed, sources, model = build_workload()
        strategy = build_runner(name, model).strategy
        groups = VectorizedExecutor()._groups(strategy, resumed.nodes)
        assert [n.node_id for _, group in groups if len(group) > 1
                for n in group] == [1, 2]
        if name == "robust-fedml":
            assert all(n.adversarial is not None for n in resumed.nodes)

    def test_same_runner_resume_matches_uninterrupted_run(self, tmp_path):
        """The runner whose fit was killed resumes it itself: its platform
        starts the resumed fit from the checkpoint's totals, not on top of
        the killed fit's records."""
        ckpt = str(tmp_path / "run.ckpt")
        options = EngineOptions(
            faults=FaultPlan([KillSchedule(block=1)]),
            checkpoint_path=ckpt,
        )
        fed, sources, model = build_workload()
        runner = build_runner("fedml", model, engine_options=options)
        with pytest.raises(RunInterrupted):
            runner.fit(fed, sources)
        resumed = runner.fit(fed, sources, resume=True)
        assert_same_run(resumed, run("fedml"))

    def test_resume_matches_under_concurrent_faults(self, tmp_path):
        """Kill mid-way through a crash-faulted run: the resumed half must
        replay the same fault schedule the uninterrupted run sees."""
        ckpt = str(tmp_path / "run.ckpt")
        crash = CrashSchedule(rate=0.2)
        policy = ResiliencePolicy(min_participants=2)
        interrupted = EngineOptions(
            faults=FaultPlan([crash, KillSchedule(block=2)], seed=7),
            resilience=policy,
            checkpoint_path=ckpt,
        )
        with pytest.raises(RunInterrupted):
            run("fedml", interrupted)
        resumed = run("fedml", interrupted, resume=True)

        # same crash stream: each schedule draws from its own indexed
        # stream, so dropping the kill does not perturb the crashes
        baseline = run(
            "fedml",
            EngineOptions(
                faults=FaultPlan([crash], seed=7), resilience=policy
            ),
        )
        assert_same_run(resumed, baseline)

    def test_checkpoint_every_skips_boundaries(self, tmp_path):
        tel = Telemetry(sink=MemorySink())
        options = EngineOptions(
            faults=FaultPlan.none(),
            checkpoint_path=str(tmp_path / "run.ckpt"),
            checkpoint_every=2,
        )
        result = run("fedml", options, telemetry=tel)
        # 4 aggregations at the golden config -> checkpoints at 2 and 4
        assert tel.registry.get("fl_checkpoints_total").value == 2
        np.testing.assert_allclose(
            to_vector(result.params),
            np.asarray(GOLDEN["fedml"]["final_params"]),
            rtol=1e-9,
        )

    def test_resume_counter_increments(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        options = EngineOptions(
            faults=FaultPlan([KillSchedule(block=1)]),
            checkpoint_path=ckpt,
        )
        with pytest.raises(RunInterrupted):
            run("fedavg", options)
        tel = Telemetry(sink=MemorySink())
        run("fedavg", options, resume=True, telemetry=tel)
        assert tel.registry.get("fl_resumes_total").value == 1


class TestResumeValidation:
    def test_resume_requires_checkpoint_path(self):
        options = EngineOptions(faults=FaultPlan.none())
        with pytest.raises(ValueError, match="checkpoint_path"):
            run("fedavg", options, resume=True)

    def test_missing_checkpoint_file(self, tmp_path):
        options = EngineOptions(
            checkpoint_path=str(tmp_path / "never-written.ckpt")
        )
        with pytest.raises(FileNotFoundError):
            run("fedavg", options, resume=True)

    def test_wrong_algorithm_rejected(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        run("fedml", EngineOptions(checkpoint_path=ckpt))
        with pytest.raises(ValueError, match="algorithm"):
            run("fedavg", EngineOptions(checkpoint_path=ckpt), resume=True)

    def test_wrong_seed_rejected(self, tmp_path):
        ckpt = str(tmp_path / "run.ckpt")
        run("fedml", EngineOptions(checkpoint_path=ckpt))
        fed, sources, model = build_workload()
        reseeded = FedML(
            model,
            FedMLConfig(
                alpha=0.05, beta=0.05, k=3, t0=3, total_iterations=12, seed=1
            ),
            engine_options=EngineOptions(checkpoint_path=ckpt),
        )
        with pytest.raises(ValueError, match="seed"):
            reseeded.fit(fed, sources, resume=True)


class TestAcceptance:
    """The issue's headline numbers, asserted directly."""

    def test_twenty_percent_crash_rate_completes(self):
        tel = Telemetry(sink=MemorySink())
        options = EngineOptions(
            faults=FaultPlan([CrashSchedule(rate=0.2)], seed=7),
            resilience=ResiliencePolicy(),
        )
        result = run("fedml", options, telemetry=tel)
        assert np.isfinite(to_vector(result.params)).all()
        assert tel.registry.get("fl_faults_total", kind="crash").value > 0
        # the other resilience counters are registered (possibly zero)
        assert tel.registry.get("fl_retries_total") is not None
        assert tel.registry.get("fl_quarantined_total") is not None

    def test_flaky_workers_charge_retries(self):
        tel = Telemetry(sink=MemorySink())
        options = EngineOptions(
            faults=FaultPlan(
                [FlakyWorkerSchedule(rate=0.3, fail_times=1)], seed=7
            ),
            resilience=ResiliencePolicy(),
        )
        run("fedml", options, telemetry=tel)
        assert tel.registry.get("fl_faults_total", kind="flaky").value > 0
        assert tel.registry.get("fl_retries_total").value > 0

    def test_nan_corruption_is_quarantined(self):
        tel = Telemetry(sink=MemorySink())
        options = EngineOptions(
            faults=FaultPlan(
                [CorruptSchedule(rate=0.2, mode="nan")], seed=7
            ),
            resilience=ResiliencePolicy(),
        )
        result = run("fedml", options, telemetry=tel)
        assert tel.registry.get("fl_quarantined_total").value > 0
        assert np.isfinite(to_vector(result.params)).all()
