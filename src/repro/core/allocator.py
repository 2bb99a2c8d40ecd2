"""The hierarchical register allocator (facade).

Ties together tile-tree construction, the bottom-up coloring phase, the
top-down binding phase, and spill-code insertion, producing the same
:class:`~repro.allocators.base.AllocationOutcome` interface as the baseline
allocators.  Each phase is one tree walk
(:func:`~repro.core.phase1.run_phase1`,
:func:`~repro.core.phase2.run_phase2`); an attached tile store only adds
per-tile memoization to those walks.  Sibling subtrees are independent in
both phases (section 6: "sibling subtrees can be processed concurrently in
both the bottom-up and top-down passes"): the walkers visit them in a fixed
order, and a property test shows any other sibling order gives the same
output.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.allocators.base import (
    AllocationOutcome,
    Allocator,
    AllocStats,
    record_spill_blocks,
)
from repro.core.budget import BudgetLimits
from repro.core.config import HierarchicalConfig
from repro.core.incremental import (
    IncrementalState,
    TileCacheStore,
    tile_invalidation_key,
)
from repro.core.info import FunctionContext, build_context
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.core.spill_code import rewrite_program
from repro.core.summary import TileAllocation
from repro.ir.function import Function
from repro.machine.rewrite import check_physical
from repro.machine.target import Machine
from repro.perf.timers import StageTimers
from repro.tiles.construction import TileTreeOptions, build_tile_tree_detailed
from repro.tiles.validate import validate_tile_tree
from repro.trace.tracer import NULL_TRACER, NullTracer


class HierarchicalAllocator(Allocator):
    """Callahan-Koblenz hierarchical graph-coloring allocation."""

    name = "hierarchical"

    def __init__(
        self,
        config: Optional[HierarchicalConfig] = None,
        tracer: Optional[NullTracer] = None,
        tile_store: Optional[TileCacheStore] = None,
        budget_limits: Optional[BudgetLimits] = None,
    ) -> None:
        self.config = config or HierarchicalConfig()
        #: resource governor (:mod:`repro.core.budget`).  ``None`` or an
        #: unlimited :class:`BudgetLimits` keeps the zero-cost fast path;
        #: otherwise each :meth:`allocate` call mints a fresh
        #: :class:`~repro.core.budget.AllocationBudget` so fuel spend is a
        #: pure function of the input, never of allocator history.
        self.budget_limits = budget_limits
        #: structured-event recorder (see :mod:`repro.trace`); the shared
        #: null tracer by default, so untraced allocation pays only
        #: ``tracer.enabled`` checks.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: per-tile memoization store (:mod:`repro.core.incremental`);
        #: ``None`` (the default) allocates cold.  With a store attached,
        #: re-allocating an edited function reuses every clean subtree's
        #: phase-1 summary and phase-2 binding and recomputes only dirty
        #: tiles -- output is bit-identical to a cold run.
        self.tile_store = tile_store
        #: reuse counters of the most recent :meth:`allocate` call when a
        #: store was attached (also published in ``stats.extra``).
        self.last_tile_cache: Optional[Dict[str, int]] = None
        #: populated by :meth:`allocate` for introspection by examples,
        #: tests and benches.
        self.last_context: Optional[FunctionContext] = None
        self.last_allocations: Optional[Dict[int, TileAllocation]] = None
        #: fuel accounting of the most recent budgeted allocate() call
        #: (``AllocationBudget.snapshot()``), also published in
        #: ``stats.extra["budget"]``.
        self.last_budget: Optional[Dict] = None

    def allocate(self, fn: Function, machine: Machine) -> AllocationOutcome:
        config = self.config
        tracer = self.tracer
        budget = (
            self.budget_limits.start() if self.budget_limits is not None else None
        )
        timers = StageTimers()
        with timers.stage("tile_tree", tracer):
            work = fn.clone()
            build = build_tile_tree_detailed(
                work,
                TileTreeOptions(
                    conditional_tiles=config.conditional_tiles,
                    max_tile_width=config.max_tile_width,
                ),
            )
            validate_tile_tree(build.tree)
            # Normalize the process-global ids embedded in derived names
            # (summary vars ``ts:{tid}:...``, pseudo colors ``t{tid}.p{i}``,
            # operand temps ``tmp:{uid}:...``): preorder tile ids and
            # ordinal instruction uids make allocation a pure function of
            # (text, config, machine) instead of process history -- the
            # property the per-tile content-addressed cache keys on.
            build.tree.renumber()
            work.renumber_uids()
            if budget is not None:
                # Tile-tree depth is fuel too: pathological nesting burns
                # budget before either phase walks the tree.
                budget.charge(len(build.tree) + build.tree.height(), "tiles")
        with timers.stage("context", tracer):
            ctx = build_context(
                work, machine, build.tree, build.fixup, config.frequencies,
                tracer=tracer, budget=budget,
            )

        store = self.tile_store
        memo = (
            IncrementalState(store, tile_invalidation_key(config, machine))
            if store is not None
            else None
        )
        with timers.stage("phase1", tracer):
            allocations = run_phase1(ctx, config, memo)
        with timers.stage("phase2", tracer):
            run_phase2(ctx, config, allocations, memo)

        with timers.stage("rewrite", tracer):
            # The rewrite mutates ``work`` in place; the arena is a
            # snapshot of the pre-rewrite function and must not serve
            # per-instruction scans past this point.
            ctx.arena.retire()
            out = rewrite_program(ctx, config, allocations)
            check_physical(out, machine.num_registers)

        stats = self._gather_stats(ctx, allocations, build)
        stats.extra["stage_times"] = timers.as_dict()
        stats.extra["stage_counts"] = timers.counts()
        self.last_budget = None
        if budget is not None:
            self.last_budget = budget.snapshot()
            stats.extra["budget"] = self.last_budget
        self.last_tile_cache = None
        if memo is not None:
            self.last_tile_cache = memo.counters(ctx.tree)
            stats.extra["tile_cache"] = self.last_tile_cache
            stats.extra["tile_fingerprints"] = tuple(
                memo.fingerprints[t.tid] for t in ctx.tree.postorder()
            )
        record_spill_blocks(out, stats)
        self.last_context = ctx
        self.last_allocations = allocations
        return AllocationOutcome(out, machine, stats)

    def _gather_stats(
        self,
        ctx: FunctionContext,
        allocations: Dict[int, TileAllocation],
        build,
    ) -> AllocStats:
        stats = AllocStats()
        stats.iterations = 1
        recolor = 0
        for alloc in allocations.values():
            if alloc.graph_counts is not None:
                # A memoized phase-2 overlay was applied: the live graph
                # is the pristine phase-1 version, the recorded counts
                # are the post-phase-2 ones a cold run would report.
                nodes, edges = alloc.graph_counts
            else:
                nodes = len(alloc.graph)
                edges = alloc.graph.edge_count()
            stats.observe_graph(nodes, edges)
            recolor += max(alloc.recolor_rounds - 1, 0)
            for var in alloc.spilled:
                if not var.startswith(("ts:", "tmp:")):
                    stats.spilled_vars.add(var)
        tree = ctx.tree
        stats.extra.update(
            {
                "tile_count": len(tree),
                "tree_height": tree.height(),
                "breadth_profile": tree.breadth_profile(),
                "fixup_blocks": build.fixup.total,
                "recolor_rounds": recolor,
            }
        )
        return stats
