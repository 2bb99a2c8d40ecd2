"""Per-tile content-addressed memoization (``repro.core.incremental``).

The contract under test: with a :class:`TileCacheStore` attached, a warm
re-allocation is *bit-identical* to a cold one -- on the unedited
function (full reuse), on an edited function (clean subtrees replayed
from the store, dirty chain recomputed), and on functions that spill
(the arena snapshot a fingerprint hashes is pre-rewrite, so a tile that
previously inserted spill code must never serve a stale entry).  The
reuse counters are part of the contract: they are how CI proves the
cache is actually hitting rather than silently recomputing.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.batch.serialize import (
    FORMAT_VERSION,
    record_from_dict,
    record_to_dict,
)
from repro.batch.worker import compute_record
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.incremental import (
    TileCacheStore,
    tile_invalidation_key,
)
from repro.ir.instructions import Opcode
from repro.machine.target import Machine
from repro.perf.arena import build_arena
from repro.pipeline import prepare
from repro.workloads.generators import random_program
from repro.workloads.kernels import sequential_loops

MACHINE = Machine.simple(8)
SMALL_MACHINE = Machine.simple(4)


def _const_sites(fn):
    """All (label, index) positions of integer CONST instructions."""
    return [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.CONST and isinstance(instr.imm, int)
    ]


def _bump(fn, site):
    label, index = site
    fn.block(label).instrs[index].imm += 1


def _swap_last_mul(fn):
    """Single-instruction edit deep in the tile tree: turn the last MUL
    (loop bodies have them; entry does not) into an ADD.  Semantics
    change, but both sides of every comparison see the same edit."""
    sites = [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.MUL
    ]
    label, index = sites[-1]
    fn.block(label).instrs[index].op = Opcode.ADD
    return label


def _allocate(fn, store=None, config=None, machine=MACHINE):
    allocator = HierarchicalAllocator(
        config or HierarchicalConfig(), tile_store=store
    )
    outcome = allocator.allocate(fn.clone(), machine)
    return outcome, allocator


def _text(outcome):
    from repro.ir.printer import format_function

    return format_function(outcome.fn)


# ----------------------------------------------------------------------
# store mechanics
# ----------------------------------------------------------------------
class TestTileCacheStore:
    def test_lru_eviction(self):
        store = TileCacheStore(capacity=2)
        store.put(("p1", "a"), 1)
        store.put(("p1", "b"), 2)
        assert store.get(("p1", "a")) == 1  # refresh a
        store.put(("p1", "c"), 3)  # evicts b
        assert store.get(("p1", "b")) is None
        assert store.get(("p1", "a")) == 1
        assert store.get(("p1", "c")) == 3
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.stats.misses == 1
        assert store.stats.hits == 3

    def test_clear(self):
        store = TileCacheStore(capacity=8)
        store.put(("p1", "a"), 1)
        store.clear()
        assert len(store) == 0
        assert store.get(("p1", "a")) is None

    def test_invalidation_key_differs_by_config_and_machine(self):
        base = tile_invalidation_key(HierarchicalConfig(), Machine.simple(8))
        other_cfg = tile_invalidation_key(
            HierarchicalConfig(demotion=False), Machine.simple(8)
        )
        other_machine = tile_invalidation_key(
            HierarchicalConfig(), Machine.simple(6)
        )
        assert base != other_cfg
        assert base != other_machine


# ----------------------------------------------------------------------
# warm-replay identity
# ----------------------------------------------------------------------
class TestWarmReplay:
    def test_unedited_replay_is_full_reuse(self):
        fn = prepare(sequential_loops(12))
        store = TileCacheStore()
        cold, _ = _allocate(fn, store)
        warm, allocator = _allocate(fn, store)
        counters = allocator.last_tile_cache
        assert counters["tile_misses"] == 0
        assert counters["tile_hits"] > 0
        assert counters["subtrees_reused"] == 1  # the whole tree, at root
        assert _text(warm) == _text(cold)
        assert warm.stats.spilled_vars == cold.stats.spilled_vars

    def test_edited_function_reuses_clean_subtrees(self):
        base = prepare(sequential_loops(12))
        edited_fn = sequential_loops(12)
        # Edit inside the last loop body: every other loop subtree is a
        # clean sibling and must come from the store.
        _swap_last_mul(edited_fn)
        edited = prepare(edited_fn)

        store = TileCacheStore()
        _allocate(base, store)
        warm, allocator = _allocate(edited, store)
        counters = allocator.last_tile_cache
        # 12 loop subtrees; only the edited one (plus the root chain) is
        # dirty, so at least 11 clean sibling subtrees replay.
        assert counters["subtrees_reused"] >= 11
        assert counters["tile_hits"] >= 11
        assert counters["tile_misses"] >= 1  # the dirty chain recomputed

    def test_edited_output_matches_fresh_allocation(self):
        base = prepare(sequential_loops(12))
        edited_fn = sequential_loops(12)
        _swap_last_mul(edited_fn)
        edited = prepare(edited_fn)

        store = TileCacheStore()
        _allocate(base, store)
        warm, _ = _allocate(edited, store)
        fresh, _ = _allocate(edited, store=None)
        assert _text(warm) == _text(fresh)
        assert warm.stats.spilled_vars == fresh.stats.spilled_vars

    def test_stats_graph_counts_survive_phase2_replay(self):
        """A warm run reports the same graph-size stats as a cold one
        even though its phase-2 overlays never touched the live graphs."""
        fn = prepare(sequential_loops(8))
        store = TileCacheStore()
        cold, _ = _allocate(fn, store)
        warm, _ = _allocate(fn, store)
        assert warm.stats.max_graph_nodes == cold.stats.max_graph_nodes
        assert warm.stats.max_graph_edges == cold.stats.max_graph_edges

    def test_cross_function_sharing(self):
        """Content addressing is function-agnostic: two functions with an
        identical tile share entries (here: the identical function under
        a different name still hits)."""
        a = prepare(sequential_loops(6))
        b = prepare(sequential_loops(6))
        b.name = "other_name"
        store = TileCacheStore()
        _allocate(a, store)
        _, allocator = _allocate(b, store)
        assert allocator.last_tile_cache["tile_misses"] == 0


# ----------------------------------------------------------------------
# spill interactions (the arena-retirement audit)
# ----------------------------------------------------------------------
class TestSpilledTiles:
    def _spilling_setup(self):
        fn = prepare(random_program(
            seed=11, max_blocks=120, max_vars=24, max_depth=5
        ))
        outcome, allocator = _allocate(fn, machine=SMALL_MACHINE)
        assert outcome.stats.spilled_vars, "setup must spill"
        return fn, allocator

    def test_edit_in_previously_spilled_tile(self):
        """Regression: an edit landing in a tile whose previous
        allocation inserted spill code must recompute that tile, never
        serve the stale pre-edit entry."""
        fn, probe = self._spilling_setup()
        # Find a non-root tile that spilled real variables and a CONST in
        # one of its own blocks to edit.
        ctx, allocations = probe.last_context, probe.last_allocations
        site = None
        for tile in ctx.tree.postorder():
            if tile.parent is None:
                continue
            alloc = allocations[tile.tid]
            if not any(
                not v.startswith(("ts:", "tmp:")) for v in alloc.spilled
            ):
                continue
            own = tile.own_blocks()
            candidates = [s for s in _const_sites(fn) if s[0] in own]
            if candidates:
                site = candidates[0]
                break
        if site is None:
            pytest.skip("no editable spilled tile in this workload")

        edited = fn.clone()
        _bump(edited, site)

        store = TileCacheStore()
        _allocate(fn, store, machine=SMALL_MACHINE)
        warm, allocator = _allocate(edited, store, machine=SMALL_MACHINE)
        fresh, _ = _allocate(edited, machine=SMALL_MACHINE)
        assert _text(warm) == _text(fresh)
        assert warm.stats.spilled_vars == fresh.stats.spilled_vars
        assert allocator.last_tile_cache["tile_misses"] >= 1

    def test_spilling_function_unedited_replay(self):
        """Full warm replay of a spilling function: the spill rewrite
        runs fresh both times and must come out identical."""
        fn, _ = self._spilling_setup()
        store = TileCacheStore()
        cold, _ = _allocate(fn, store, machine=SMALL_MACHINE)
        warm, allocator = _allocate(fn, store, machine=SMALL_MACHINE)
        assert allocator.last_tile_cache["tile_misses"] == 0
        assert _text(warm) == _text(cold)

    def test_retired_arena_refuses_block_digest(self):
        """Fingerprints hash the pre-rewrite snapshot; once the rewrite
        retires the arena, serving a digest would hash stale text."""
        fn = prepare(sequential_loops(3))
        arena = build_arena(fn)
        assert arena.block_digest(0)  # fine while live
        arena.retire()
        with pytest.raises(RuntimeError):
            arena.block_digest(0)


# ----------------------------------------------------------------------
# batch plumbing
# ----------------------------------------------------------------------
class TestBatchPlumbing:
    def test_record_round_trips_tile_fingerprints(self):
        fn = prepare(sequential_loops(4))
        store = TileCacheStore()
        record, _, counters = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
            tile_store=store,
        )
        assert record.version == FORMAT_VERSION == 3
        assert record.tile_fingerprints
        assert counters["tile_misses"] > 0
        back = record_from_dict(record_to_dict(record))
        assert back == record
        assert back.tile_fingerprints == record.tile_fingerprints

    def test_records_identical_with_and_without_store(self):
        fn = prepare(sequential_loops(4))
        plain, _, no_counters = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
        )
        stored, _, _ = compute_record(
            "f", fn, HierarchicalConfig(), MACHINE, simulate=False,
            tile_store=TileCacheStore(),
        )
        assert no_counters is None
        assert plain.allocated_sha256 == stored.allocated_sha256
        assert plain.spilled == stored.spilled
        assert plain.bindings == stored.bindings
        # tile_fingerprints are observability-only and differ by design
        # (only store-attached runs compute them).
        assert plain.tile_fingerprints == ()

    def test_engine_counters_inline(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(4)
        batch = BatchConfig(
            batch_workers=0, cache_policy="off", tile_cache=True
        )
        with BatchEngine(batch=batch) as engine:
            engine.allocate_module(workloads)
            first = engine.stats.tile_misses
            assert first > 0
            assert engine.stats.tile_hits == 0
            engine.allocate_module(workloads)
            # cache_policy="off" recomputes every function; the second
            # pass must be pure tile-store replay.
            assert engine.stats.tile_hits == first
            assert engine.stats.tile_misses == first
            assert engine.stats.subtrees_reused >= len(workloads)
            stats = engine.stats.as_dict()
            assert {"tile_hits", "tile_misses", "subtrees_reused"} <= set(
                stats
            )

    def test_engine_counters_pooled(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(3)
        batch = BatchConfig(
            batch_workers=1, cache_policy="off", tile_cache=True
        )
        with BatchEngine(batch=batch) as engine:
            engine.allocate_module(workloads)
            first = engine.stats.tile_misses
            assert first > 0
            engine.allocate_module(workloads)
            # One worker owns one store: the second pass replays from it
            # and the counters travel back through the pool plumbing.
            assert engine.stats.tile_hits == first

    def test_tile_cache_off_reports_no_counters(self):
        from repro.batch import BatchConfig, BatchEngine, synthetic_module

        workloads = synthetic_module(2)
        with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:
            engine.allocate_module(workloads)
            assert engine.stats.tile_hits == 0
            assert engine.stats.tile_misses == 0


# ----------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------
def test_tile_cache_hit_events():
    from repro.trace import AllocationTracer, MemorySink, TileCacheHit

    fn = prepare(sequential_loops(6))
    store = TileCacheStore()
    _allocate(fn, store)

    sink = MemorySink()
    tracer = AllocationTracer([sink])
    allocator = HierarchicalAllocator(
        HierarchicalConfig(), tracer=tracer, tile_store=store
    )
    allocator.allocate(fn.clone(), MACHINE)
    hits = [e for e in sink.events if isinstance(e, TileCacheHit)]
    assert hits, "full warm replay must emit TileCacheHit events"
    assert {e.phase for e in hits} == {"phase1", "phase2"}
    assert all(e.fingerprint for e in hits)


# ----------------------------------------------------------------------
# hypothesis: random single-block edit replay
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pick=st.integers(min_value=0, max_value=10**6),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_edit_replay_matches_full(seed, pick):
    """For arbitrary generated programs and an arbitrary single-block
    edit: warm incremental re-allocation == fresh full allocation, and
    the identity replay (same text again) is 100% reuse."""
    fn = prepare(random_program(seed))
    sites = _const_sites(fn)
    assume(sites)

    store = TileCacheStore()
    cold, _ = _allocate(fn, store)

    # Identity replay: everything hits, output identical.
    replay, allocator = _allocate(fn, store)
    counters = allocator.last_tile_cache
    assert counters["tile_misses"] == 0
    assert _text(replay) == _text(cold)

    # Edited replay: bit-identical to a fresh allocation of the edit.
    edited = fn.clone()
    _bump(edited, sites[pick % len(sites)])
    warm, allocator = _allocate(edited, store)
    fresh, _ = _allocate(edited)
    assert _text(warm) == _text(fresh)
    assert warm.stats.spilled_vars == fresh.stats.spilled_vars
    counters = allocator.last_tile_cache
    total = counters["tile_hits"] + counters["tile_misses"]
    assert total == warm.stats.extra["tile_count"]
    assert counters["tile_misses"] >= 1
    if counters["tile_hits"]:
        assert counters["subtrees_reused"] >= 1
