"""Per-layer decomposition for the traced run.

For each function of a workload's fixed prefix the benchmark calls the
layers itself, in pipeline order -- print/parse, renaming, tile tree,
arena, liveness, frequency, allocate, simulate -- with a span around each
call, all sharing the function's trace id.  A tight loop over one layer is
avoided on purpose: it would hide the warm-up tail of the dense frequency
solve, which only shows when the layers run in their real order.

``allocate`` runs under a fuel budget too large to trip, so the fuel
counters of :mod:`repro.core.budget` come back; a budgeted run that
completes is bit-identical to an unbudgeted one, which
:func:`decompose` checks against the untraced output.
"""

from __future__ import annotations

import time
from typing import Dict, List

#: Fuel budget that never trips; only the counters are wanted.
UNLIMITED_FUEL = 10 ** 15

#: Fuel counter categories charged by the allocator (``core/budget.py``).
FUEL = ("instrs", "liveness", "graph", "simplify", "rounds", "tiles",
        "edges", "moves")

#: ``allocate()`` stage names that become ``<stage>.ms`` metrics; any new
#: stage the allocator reports shows up under its own name.
STAGE_ALIASES = {"tile_tree": "tiles"}

class Decomposition:
    """Counts and stage times summed over the decomposed functions."""

    def __init__(self) -> None:
        self.functions = 0
        self.counts: Dict[str, int] = {name: 0 for name in (
            "tiles.count", "tiles.height", "tiles.fixup_blocks",
            "graph.max_nodes", "graph.max_edges", "phase1.recolor_rounds",
            "phase2.spilled_vars", "simulate.steps",
        )}
        for name in FUEL:
            self.counts[f"fuel.{name}"] = 0
        self.stage_ms: Dict[str, List[float]] = {}
        self.frequency_first_ms: float = 0.0
        self.shas: Dict[str, str] = {}

    def add_stage(self, stage: str, seconds: float) -> None:
        name = STAGE_ALIASES.get(stage, stage)
        self.stage_ms.setdefault(name, []).append(seconds * 1000.0)


def decompose(spans, trace_id: str, workload, machine, canonical: bool,
              result: Decomposition) -> None:
    """Run one function through every layer under spans (see module doc).

    With *canonical* the parsed-back printed form is allocated, as the
    batch engine does; otherwise the function object itself, as a direct
    ``prepare`` + ``allocate`` caller does (block order can steer ties).
    The allocated program's hash goes to ``result.shas[trace_id]``, for
    the caller to compare with the output of its timed path.
    """
    from repro.analysis.frequency import estimate_frequencies
    from repro.analysis.liveness import liveness_from_arena
    from repro.analysis.renaming import rename_webs
    from repro.core import HierarchicalAllocator, HierarchicalConfig
    from repro.core.budget import BudgetLimits
    from repro.ir.parser import parse_function
    from repro.ir.printer import format_function
    from repro.machine.rewrite import remove_self_moves
    from repro.machine.simulator import simulate
    from repro.perf.arena import build_arena
    from repro.tiles.construction import build_tile_tree_detailed

    from common import sha256_text

    config = HierarchicalConfig()
    with spans.span("function", trace_id):
        with spans.span("ir.format", trace_id):
            text = format_function(workload.fn)
        with spans.span("ir.parse", trace_id):
            parsed = parse_function(text)
        fn = parsed if canonical else workload.fn
        with spans.span("renaming", trace_id):
            renamed, _ = rename_webs(fn)
        with spans.span("tiles", trace_id):
            work = renamed.clone()
            build_tile_tree_detailed(work)
        with spans.span("arena", trace_id):
            arena = build_arena(work)
        with spans.span("liveness", trace_id):
            liveness_from_arena(arena)
        start = time.perf_counter()
        with spans.span("frequency", trace_id):
            estimate_frequencies(work)
        if result.functions == 0:
            result.frequency_first_ms = (time.perf_counter() - start) * 1000.0
        allocator = HierarchicalAllocator(
            config, budget_limits=BudgetLimits(max_fuel=UNLIMITED_FUEL)
        )
        with spans.span("allocate", trace_id):
            outcome = allocator.allocate(renamed, machine)
        remove_self_moves(outcome.fn)
        args = {
            target: workload.args[source]
            for target, source in zip(outcome.fn.params, workload.fn.params)
        }
        with spans.span("simulate", trace_id):
            run = simulate(outcome.fn, args=args, arrays=workload.arrays)

    result.shas[trace_id] = sha256_text(format_function(outcome.fn))
    stats = outcome.stats
    extra = stats.extra
    for stage, seconds in extra["stage_times"].items():
        result.add_stage(stage, seconds)
    counts = result.counts
    counts["tiles.count"] += extra["tile_count"]
    counts["tiles.height"] += extra["tree_height"]
    counts["tiles.fixup_blocks"] += extra["fixup_blocks"]
    counts["graph.max_nodes"] = max(counts["graph.max_nodes"],
                                    stats.max_graph_nodes)
    counts["graph.max_edges"] = max(counts["graph.max_edges"],
                                    stats.max_graph_edges)
    counts["phase1.recolor_rounds"] += extra["recolor_rounds"]
    counts["phase2.spilled_vars"] += len(stats.spilled_vars)
    counts["simulate.steps"] += run.steps
    for name, units in allocator.last_budget["counters"].items():
        counts[f"fuel.{name}"] = counts.get(f"fuel.{name}", 0) + units
    result.functions += 1
