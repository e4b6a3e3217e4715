"""Tests for the autodiff tape profiler."""

import numpy as np
import pytest

from repro.autodiff import Tensor, grad, ops
from repro.autodiff.profile import TapeProfiler, profile_ops


def forward_backward():
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    w = Tensor(np.random.default_rng(1).normal(size=(3, 2)), requires_grad=True)
    loss = ops.sum_(ops.relu(ops.matmul(x, w)))
    return grad(loss, [x, w])


class TestProfileOps:
    def test_counts_ops_by_type(self):
        with profile_ops() as prof:
            forward_backward()
        assert prof.op_stats["matmul"].calls >= 1
        assert prof.op_stats["relu"].calls >= 1
        assert prof.op_stats["sum"].calls >= 1
        assert prof.total_ops >= 3

    def test_tape_length_counts_grad_tracked_tensors_only(self):
        with profile_ops() as prof:
            a = Tensor(np.ones(3))  # constant
            b = Tensor(np.ones(3), requires_grad=True)
            ops.add(a, a)  # pruned: no parent requires grad
            ops.add(b, b)  # tape node
        add_stats = prof.op_stats["add"]
        assert add_stats.calls == 2
        assert add_stats.grad_calls == 1
        assert prof.tape_length == 1

    def test_tape_grows_with_graph_depth(self):
        def chain(steps):
            with profile_ops() as prof:
                x = Tensor(np.ones(4), requires_grad=True)
                y = x
                for _ in range(steps):
                    y = ops.mul(y, y)
                grad(ops.sum_(y), [x])
            return prof.tape_length

        assert chain(8) > chain(2)

    def test_per_op_time_recorded(self):
        with profile_ops() as prof:
            forward_backward()
        assert prof.op_stats["matmul"].seconds > 0
        assert prof.total_seconds > 0
        assert prof.op_stats["matmul"].mean_seconds > 0

    def test_element_volume_recorded(self):
        with profile_ops() as prof:
            a = Tensor(np.ones((10, 10)), requires_grad=True)
            ops.add(a, a)
        assert prof.op_stats["add"].elements == 100

    def test_ops_restored_after_context(self):
        original = ops.matmul
        with profile_ops():
            assert ops.matmul is not original
        assert ops.matmul is original
        assert ops._PROFILE_HOOK is None

    def test_restored_even_on_exception(self):
        original = ops.add
        with pytest.raises(RuntimeError):
            with profile_ops():
                raise RuntimeError("boom")
        assert ops.add is original
        assert ops._PROFILE_HOOK is None

    def test_nested_profiling_rejected(self):
        with profile_ops():
            with pytest.raises(RuntimeError):
                with profile_ops():
                    pass

    def test_results_unchanged_under_profiling(self):
        baseline = forward_backward()
        with profile_ops():
            profiled = forward_backward()
        for a, b in zip(baseline, profiled):
            np.testing.assert_allclose(a.data, b.data)


class TestExport:
    def test_summary_renders_totals(self):
        with profile_ops() as prof:
            forward_backward()
        text = prof.summary()
        assert "matmul" in text
        assert "total" in text

    def test_summary_top_limits_rows(self):
        with profile_ops() as prof:
            forward_backward()
        assert len(prof.summary(top=1).splitlines()) == 4  # header, rule, 1 op, total

    def test_to_registry_exports_counters(self):
        from repro.obs import MetricRegistry

        with profile_ops() as prof:
            forward_backward()
        registry = MetricRegistry()
        prof.to_registry(registry)
        assert registry.get("autodiff_op_calls_total", op="matmul").value >= 1
        assert (
            registry.get("autodiff_tape_nodes_total").value == prof.tape_length
        )

    def test_accumulates_across_contexts_with_shared_profiler(self):
        prof = TapeProfiler()
        with profile_ops(prof):
            forward_backward()
        first = prof.total_ops
        with profile_ops(prof):
            forward_backward()
        assert prof.total_ops == 2 * first

    def test_zero_time_ops_still_export_seconds(self):
        """Regression: ops too fast for the timer (seconds == 0.0) used to
        be silently dropped from autodiff_op_seconds_total, so the metric's
        presence varied run-to-run."""
        from repro.obs import MetricRegistry

        prof = TapeProfiler()
        prof.record_creation("add", 4, True)  # created, never timed: 0.0s
        registry = MetricRegistry()
        prof.to_registry(registry)
        seconds = registry.get("autodiff_op_seconds_total", op="add")
        assert seconds is not None
        assert seconds.value == 0.0

    def test_sum_creation_and_timing_share_one_bucket(self):
        """The op function is ``sum_`` but the tape records ``sum``; the
        rstrip keying must land creation counts and wall time in the same
        stats bucket (and therefore the same metric labels)."""
        from repro.obs import MetricRegistry

        with profile_ops() as prof:
            a = Tensor(np.ones((8, 8)), requires_grad=True)
            ops.sum_(a)
        assert "sum" in prof.op_stats
        assert "sum_" not in prof.op_stats
        assert prof.op_stats["sum"].calls == 1
        assert prof.op_stats["sum"].seconds > 0
        registry = MetricRegistry()
        prof.to_registry(registry)
        assert registry.get("autodiff_op_calls_total", op="sum").value == 1
        assert registry.get("autodiff_op_seconds_total", op="sum") is not None
        assert registry.get("autodiff_op_calls_total", op="sum_") is None

    def test_graph_walks_counted_and_exported(self):
        from repro.obs import MetricRegistry

        with profile_ops() as prof:
            forward_backward()  # one grad() call -> one traversal
            forward_backward()
        assert prof.graph_walks == 2
        assert prof.walked_nodes > 0
        registry = MetricRegistry()
        prof.to_registry(registry)
        assert registry.get("autodiff_graph_walks_total").value == 2

    def test_walk_hook_uninstalled_after_context(self):
        from repro.autodiff.profile import tensor_mod

        with profile_ops():
            assert tensor_mod._WALK_HOOK is not None
        assert tensor_mod._WALK_HOOK is None

