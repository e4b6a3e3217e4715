"""Hypothesis property suite for the fleet simulator (ISSUE 9 satellite).

Three claims the event-driven design stands on:

1. The event schedule is a *total* order — heap keys ``(time, rank,
   node_id)`` are unique per wave — so pop order (and therefore the final
   θ) is independent of the order events were pushed.
2. Lazy residency is invisible: materialize → evict → rematerialize
   yields bit-identical node state to never evicting.
3. Buffered aggregation at staleness 0 *is* synchronous FedAvg: when the
   buffer only ever holds fresh entries, the flush passes each update
   through untouched and the reduction is the same weighted mean, bit for
   bit, on the same sample sequence.  The flush corrects its stale rows
   stacked, in one expression per parameter; that equals correcting each
   entry alone, bit for bit.
"""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fedavg import FedAvgConfig
from repro.engine.strategies import SgdStrategy
from repro.autodiff import Tensor
from repro.federated.aggregation import normalized_weights, weighted_mean
from repro.federated.fleet import (
    BufferedAggregator,
    BufferEntry,
    FleetConfig,
    FleetRegistry,
    FleetSimulator,
    SyntheticShardFactory,
)
from repro.nn import LogisticRegression
from repro.nn.batched import stack_params
from repro.obs.sink import MemorySink
from repro.obs.telemetry import Telemetry


def fleet_run(seed, fleet=200, sampled=8, rounds=3, local_steps=2,
              buffer_size=None, staleness_alpha=0.5, capture_events=False):
    shards = SyntheticShardFactory(seed=seed)
    model = LogisticRegression(shards.input_dim, shards.num_classes)
    strategy = SgdStrategy(
        model,
        FedAvgConfig(
            learning_rate=0.05, t0=local_steps,
            total_iterations=rounds * local_steps, eval_every=1, seed=seed,
        ),
    )
    config = FleetConfig(
        fleet_size=fleet, sampled_per_round=sampled, rounds=rounds,
        local_steps=local_steps, seed=seed, buffer_size=buffer_size,
        staleness_alpha=staleness_alpha,
    )
    sink = MemorySink() if capture_events else None
    telemetry = Telemetry(sink=sink) if capture_events else None
    sim = FleetSimulator(strategy, config, shards=shards,
                         telemetry=telemetry)
    result = sim.run()
    events = (
        [r for r in sink.records if r.get("type") == "event"]
        if capture_events
        else None
    )
    return result, events


def trees_equal(a, b):
    return set(a) == set(b) and all(
        np.array_equal(a[name].data, b[name].data) for name in a
    )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 1.5, 2.0]),  # times with forced ties
            st.sampled_from([0, 1]),  # event-kind rank
        ),
        min_size=2,
        max_size=24,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_heap_pop_order_independent_of_insertion_order(specs, shuffler):
    """(time, rank, node_id) keys are unique ⇒ one canonical pop order."""
    # One event per node per wave, exactly as the simulator pushes them.
    keys = [
        (when, rank, node_id) for node_id, (when, rank) in enumerate(specs)
    ]
    shuffled = list(keys)
    shuffler.shuffle(shuffled)

    def drain(items):
        heap = []
        for item in items:
            heapq.heappush(heap, item)
        return [heapq.heappop(heap) for _ in range(len(heap))]

    assert drain(shuffled) == drain(keys) == sorted(keys)


@given(st.integers(0, 2**16), st.booleans())
@settings(max_examples=8, deadline=None)
def test_same_seed_same_schedule_and_theta(seed, buffered):
    """Double run: identical event stream and bit-identical final θ."""
    buffer_size = 3 if buffered else None
    first, first_events = fleet_run(
        seed, buffer_size=buffer_size, capture_events=True
    )
    second, second_events = fleet_run(
        seed, buffer_size=buffer_size, capture_events=True
    )
    assert first_events == second_events
    assert trees_equal(first.params, second.params)
    assert first.history.records == second.history.records


@given(st.integers(0, 2**16), st.integers(0, 499))
@settings(max_examples=25, deadline=None)
def test_evict_rematerialize_bit_identical_to_resident(seed, node_id):
    shards = SyntheticShardFactory(seed=seed)
    resident = FleetRegistry(500, shards)
    keeper = resident.materialize(node_id)

    churned = FleetRegistry(500, shards)
    churned.materialize(node_id)
    churned.evict(node_id)
    rebuilt = churned.materialize(node_id)

    assert np.array_equal(rebuilt.split.train.x, keeper.split.train.x)
    assert np.array_equal(rebuilt.split.train.y, keeper.split.train.y)
    assert np.array_equal(rebuilt.split.test.x, keeper.split.test.x)
    assert np.array_equal(rebuilt.split.test.y, keeper.split.test.y)
    assert rebuilt.weight == keeper.weight


@given(st.integers(0, 2**16), st.integers(2, 10))
@settings(max_examples=8, deadline=None)
def test_staleness_zero_buffered_reduces_to_synchronous(seed, sampled):
    """buffer == sampled ⇒ every entry fresh ⇒ bitwise FedAvg.

    With the buffer as large as the wave, every flush happens with
    ``base_version == current_version`` for all entries: the discount
    path is never taken (regardless of α) and the flush is the same
    ``weighted_mean`` call the synchronous mode makes.
    """
    sync, _ = fleet_run(seed, sampled=sampled, buffer_size=None)
    fresh, _ = fleet_run(
        seed, sampled=sampled, buffer_size=sampled, staleness_alpha=0.5
    )
    extreme, _ = fleet_run(
        seed, sampled=sampled, buffer_size=sampled, staleness_alpha=3.0
    )
    assert trees_equal(sync.params, fresh.params)
    assert trees_equal(sync.params, extreme.params)
    assert sync.history.records == fresh.history.records


#: the shapes of the trees the flush properties aggregate (a matrix, a
#: vector and a 0-d parameter)
_FLUSH_SHAPES = {"b": (3,), "s": (), "w": (2, 3)}


def _random_tree(rng):
    return {
        name: Tensor(rng.standard_normal(shape))
        for name, shape in _FLUSH_SHAPES.items()
    }


def _buffer(seed, stalenesses, version=4):
    """Entries with distinct shuffled node ids and the given stalenesses,
    the current θ, and a base θ per version an entry is anchored to."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * len(stalenesses))[: len(stalenesses)]
    entries = [
        BufferEntry(
            node_id=int(node_id),
            weight=float(rng.integers(1, 40)),
            base_version=version - tau,
            params=_random_tree(rng),
        )
        for node_id, tau in zip(ids, stalenesses)
    ]
    base_of = {version - tau: _random_tree(rng) for tau in set(stalenesses)}
    return entries, _random_tree(rng), base_of


def _flush(entries, current, version, base_of, alpha):
    agg = BufferedAggregator(len(entries), staleness_alpha=alpha)
    for entry in entries:
        agg.add(entry)
    return agg.flush(current, version, base_of)


@given(
    st.integers(0, 2**16),
    st.lists(st.integers(0, 4), min_size=1, max_size=16),
    st.sampled_from([0.0, 0.5, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_stacked_flush_equals_per_entry_correction(seed, stalenesses, alpha):
    """The flush equals ``weighted_mean(stack_params([θ̃_i]))`` over the
    entries in node order, ``θ̃_i = θ + d(τ_i)·(θ_i − θ_b)`` formed one
    entry at a time and fresh entries passed through, bit for bit."""
    version = 4
    entries, current, base_of = _buffer(seed, stalenesses, version)
    ordered = sorted(entries, key=lambda e: e.node_id)
    corrected = []
    for entry in ordered:
        tau = version - entry.base_version
        if tau == 0:
            corrected.append(entry.params)
            continue
        d = (1.0 + tau) ** (-alpha)
        base = base_of[entry.base_version]
        corrected.append(
            {
                name: Tensor(
                    current[name].data
                    + d * (entry.params[name].data - base[name].data)
                )
                for name in current
            }
        )
    expected = weighted_mean(
        stack_params(corrected),
        normalized_weights([e.weight for e in ordered]),
    )
    merged, stats = _flush(entries, current, version, base_of, alpha)
    assert sorted(merged) == sorted(expected)
    for name in expected:
        assert np.array_equal(merged[name].data, expected[name].data)
    assert [s["node"] for s in stats] == [e.node_id for e in ordered]
    assert [s["staleness"] for s in stats] == [
        version - e.base_version for e in ordered
    ]


@given(
    st.integers(0, 2**16),
    st.integers(1, 16),
    st.sampled_from([0.0, 0.5, 2.0]),
)
@settings(max_examples=30, deadline=None)
def test_all_fresh_flush_is_synchronous_fedavg(seed, count, alpha):
    """With no stale entry the flush is ``weighted_mean`` of the stacked
    uploads in node order: synchronous FedAvg's aggregation."""
    entries, current, base_of = _buffer(seed, [0] * count)
    ordered = sorted(entries, key=lambda e: e.node_id)
    expected = weighted_mean(
        stack_params([e.params for e in ordered]),
        normalized_weights([e.weight for e in ordered]),
    )
    merged, _ = _flush(entries, current, 4, {}, alpha)
    for name in expected:
        assert np.array_equal(merged[name].data, expected[name].data)


# ----------------------------------------------------------------------
# 4. Version-store refcount invariant (ISSUE 10 satellite)
# ----------------------------------------------------------------------
# The checkpoint writer once recomputed refcounts from the buffer alone,
# dropping the retains held by pending events — resume then orphaned
# those versions.  The property: *any* interleaving of retain / release /
# checkpoint+resume leaves the store with exactly one refcount per tree
# (len(_refs) == len(_trees)), every count positive, and a resume that
# reproduces the counts bit for bit.


def _version_tree(version):
    from repro.autodiff import Tensor

    return {"w": Tensor(np.full(4, float(version)))}


def _roundtrip(store):
    """Serialize the store the way _save does and rebuild as _restore does."""
    from repro.federated.fleet import _VersionStore

    refs = store.refcounts()
    trees = store.snapshot()
    rebuilt = _VersionStore()
    for version, count in sorted(refs.items()):
        assert count > 0 and version in trees
        for _ in range(count):
            rebuilt.retain(version, trees[version])
    rebuilt.check_invariant()
    assert rebuilt.refcounts() == refs
    for version, tree in rebuilt.snapshot().items():
        assert trees_equal(tree, trees[version])
    return rebuilt


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["retain", "release", "roundtrip"]),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_version_store_refcount_invariant(script):
    from repro.federated.fleet import _VersionStore

    store = _VersionStore()
    expected = {}  # version -> refcount, the oracle
    for op, pick in script:
        if op == "retain":
            version = pick
            store.retain(version, _version_tree(version))
            expected[version] = expected.get(version, 0) + 1
        elif op == "release":
            if not expected:
                continue
            version = sorted(expected)[pick % len(expected)]
            store.release(version)
            expected[version] -= 1
            if expected[version] == 0:
                del expected[version]
        else:
            store = _roundtrip(store)
        store.check_invariant()
        assert store.refcounts() == expected
        assert len(store.refcounts()) == len(store.snapshot())
