"""Unit tests for fault plans, schedules, and the CLI spec parser."""

import pytest

from repro.faults import (
    CorruptSchedule,
    CrashSchedule,
    DelaySchedule,
    DropSchedule,
    ExplicitSchedule,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FlakyWorkerSchedule,
    KillSchedule,
)

NODES = [0, 1, 2, 3, 4]
BLOCKS = 4


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent("meltdown", 0)

    def test_negative_block(self):
        with pytest.raises(ValueError):
            FaultEvent("drop", -1)

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            FaultEvent("crash", 0, 1, duration=0)

    def test_bad_corruption_mode(self):
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, mode="zero")

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, fraction=0.0)
        with pytest.raises(ValueError):
            FaultEvent("corrupt", 0, 1, fraction=1.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            FaultEvent("delay", 0, 1, delay_s=-1.0)

    def test_bad_fail_times(self):
        with pytest.raises(ValueError):
            FaultEvent("flaky", 0, 1, fail_times=0)


def compile_grid(plan, nodes=NODES, blocks=BLOCKS):
    """Tabulate every per-cell decision of ``plan`` over a node × block grid
    (faulted cells only, so an empty grid means no faults)."""
    grid = {}
    for block in range(blocks):
        for node in nodes:
            cell = {
                "crash": plan.crashed(block, node),
                "drop": plan.dropped(block, node),
                "delay": plan.delay_s(block, node),
                "corrupt": plan.corruption(block, node),
                "flaky": plan.flaky_failures(block, node),
            }
            for kind, value in cell.items():
                if value:
                    grid[(kind, block, node)] = value
    return grid


def cells(grid, kind):
    return {(block, node) for k, block, node in grid if k == kind}


class TestScheduleValidation:
    """Schedules reject bad parameters when built, before any run."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DropSchedule(rate=1.5),
            lambda: CrashSchedule(rate=-0.1),
            lambda: CrashSchedule(rate=0.2, duration=0),
            lambda: CorruptSchedule(rate=0.2, mode="zero"),
            lambda: CorruptSchedule(rate=0.2, fraction=0.0),
            lambda: DelaySchedule(rate=0.2, delay_s=-1.0),
            lambda: FlakyWorkerSchedule(rate=0.2, fail_times=0),
            lambda: KillSchedule(block=-1),
        ],
    )
    def test_bad_parameters_rejected_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_unknown_schedule_type_rejected(self):
        with pytest.raises(TypeError, match="not a fault schedule"):
            FaultPlan([FaultEvent("drop", 0, 1)])

    @pytest.mark.parametrize(
        "spec", ["drop:rate=1.5", "kill:block=-1", "crash:rate=0.2,duration=0"]
    )
    def test_from_spec_rejects_bad_parameters(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)


class TestCompile:
    """What a plan resolves to over a concrete run grid, cell by cell."""

    def test_empty_plan_compiles_empty(self):
        plan = FaultPlan.none()
        assert compile_grid(plan) == {}
        assert not plan.killed_after(0)
        assert plan.corruption(0, 0) is None

    def test_same_seed_same_faults(self):
        schedules = [CrashSchedule(rate=0.3), DropSchedule(rate=0.3)]
        assert compile_grid(FaultPlan(schedules, seed=42)) == compile_grid(
            FaultPlan(schedules, seed=42)
        )

    def test_different_seed_different_faults(self):
        schedules = [DropSchedule(rate=0.5)]
        a = compile_grid(FaultPlan(schedules, seed=0))
        b = compile_grid(FaultPlan(schedules, seed=1))
        assert cells(a, "drop") != cells(b, "drop")

    def test_compile_independent_of_node_order(self):
        plan = FaultPlan([DropSchedule(rate=0.5)], seed=7)
        forward = compile_grid(plan)
        backward = compile_grid(plan, nodes=list(reversed(NODES)))
        assert forward == backward

    def test_adding_node_preserves_other_nodes_faults(self):
        """A cell's faults depend on its own (block, node) only: growing
        the node set re-rolls nothing for the nodes already there."""
        plan = FaultPlan.from_spec(
            "crash:rate=0.3,duration=2;drop:rate=0.3;delay:rate=0.3;"
            "corrupt:rate=0.3;flaky:rate=0.3",
            seed=7,
        )
        five = compile_grid(plan, nodes=NODES)
        six = compile_grid(plan, nodes=NODES + [5])
        assert five == {k: v for k, v in six.items() if k[2] != 5}

    def test_adding_schedule_preserves_earlier_events(self):
        """Each schedule draws its own named stream, so composition is
        stable: appending a schedule never perturbs the ones before it."""
        base = FaultPlan([DropSchedule(rate=0.4)], seed=3)
        extended = FaultPlan(
            [DropSchedule(rate=0.4), CrashSchedule(rate=0.4)], seed=3
        )
        assert cells(compile_grid(base), "drop") == cells(
            compile_grid(extended), "drop"
        )

    def test_crash_duration_spans_blocks(self):
        plan = FaultPlan(
            [ExplicitSchedule((FaultEvent("crash", 1, 2, duration=2),))]
        )
        assert cells(compile_grid(plan), "crash") == {(1, 2), (2, 2)}

    def test_rate_crash_duration_spans_blocks(self):
        """A crash started at block b keeps the node down through
        b + duration - 1, so every start cell opens a full window."""
        plan = FaultPlan([CrashSchedule(rate=0.2, duration=3)], seed=5)
        starts = cells(
            compile_grid(FaultPlan([CrashSchedule(rate=0.2)], seed=5)),
            "crash",
        )
        windows = {
            (block + offset, node)
            for block, node in starts
            for offset in range(3)
            if block + offset < BLOCKS
        }
        assert starts
        assert cells(compile_grid(plan), "crash") == windows

    def test_explicit_event_for_unknown_node_rejected(self):
        plan = FaultPlan([ExplicitSchedule((FaultEvent("drop", 0, 99),))])
        with pytest.raises(ValueError, match="unknown node 99"):
            FaultInjector(plan).begin(NODES)

    def test_kill_schedule_is_not_node_scoped(self):
        plan = FaultPlan([KillSchedule(block=2)])
        assert [b for b in range(BLOCKS) if plan.killed_after(b)] == [2]
        assert compile_grid(plan) == {}
        FaultInjector(plan).begin(NODES)  # kill names no node to reject

    def test_delays_accumulate_and_flaky_takes_max(self):
        events = (
            FaultEvent("delay", 0, 1, delay_s=1.0),
            FaultEvent("delay", 0, 1, delay_s=2.5),
            FaultEvent("flaky", 0, 2, fail_times=1),
            FaultEvent("flaky", 0, 2, fail_times=3),
        )
        plan = FaultPlan(
            [ExplicitSchedule(events), DelaySchedule(rate=1.0, delay_s=0.5)]
        )
        assert plan.delay_s(0, 1) == pytest.approx(4.0)
        assert plan.delay_s(0, 0) == pytest.approx(0.5)
        assert plan.flaky_failures(0, 2) == 3
        assert plan.flaky_failures(0, 1) == 0

    def test_corrupt_precedence_schedule_then_explicit(self):
        """First corrupt schedule in plan order wins; explicit events
        (first listed first) apply only where no schedule hits."""
        explicit = ExplicitSchedule(
            (
                FaultEvent("corrupt", 0, 1, mode="scale", scale=3.0),
                FaultEvent("corrupt", 0, 1, mode="scale", scale=4.0),
            )
        )
        first = CorruptSchedule(rate=1.0, mode="scale", scale=5.0)
        second = CorruptSchedule(rate=1.0, mode="scale", scale=7.0)
        plan = FaultPlan([explicit, first, second])
        assert plan.corruption(0, 1).scale == 5.0
        assert FaultPlan([second, first]).corruption(0, 1).scale == 7.0
        assert FaultPlan([explicit]).corruption(0, 1).scale == 3.0
        assert FaultPlan([explicit]).corruption(0, 0) is None

    def test_rate_bounds_checked(self):
        with pytest.raises(ValueError):
            FaultPlan([DropSchedule(rate=1.5)])

    def test_rate_one_hits_every_cell(self):
        grid = compile_grid(FaultPlan([DropSchedule(rate=1.0)]))
        assert len(cells(grid, "drop")) == len(NODES) * BLOCKS


class TestFromSpec:
    def test_full_grammar(self):
        plan = FaultPlan.from_spec(
            "crash:rate=0.2,duration=2;"
            "drop:rate=0.1;"
            "corrupt:rate=0.1,mode=scale,scale=5.0;"
            "delay:rate=0.3,delay_s=2.0;"
            "flaky:rate=0.2,fail_times=2;"
            "kill:block=3",
            seed=9,
        )
        kinds = [type(s).__name__ for s in plan.schedules]
        assert kinds == [
            "CrashSchedule",
            "DropSchedule",
            "CorruptSchedule",
            "DelaySchedule",
            "FlakyWorkerSchedule",
            "KillSchedule",
        ]
        assert plan.seed == 9
        assert plan.schedules[0].duration == 2
        assert plan.schedules[2].mode == "scale"
        assert plan.schedules[5].block == 3

    def test_spec_matches_hand_built_plan(self):
        spec = FaultPlan.from_spec("drop:rate=0.4", seed=5)
        built = FaultPlan([DropSchedule(rate=0.4)], seed=5)
        assert compile_grid(spec) == compile_grid(built)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_spec("meltdown:rate=0.2")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="bad 'drop' option"):
            FaultPlan.from_spec("drop:severity=9")

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.from_spec("").schedules == ()

    def test_with_seed_and_describe(self):
        plan = FaultPlan.from_spec("drop:rate=0.1", seed=1)
        reseeded = plan.with_seed(2)
        assert reseeded.seed == 2
        assert reseeded.schedules == plan.schedules
        assert "DropSchedule" in plan.describe()
        assert "empty" in FaultPlan.none().describe()
