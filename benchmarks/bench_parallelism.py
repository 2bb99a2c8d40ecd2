"""E8 -- parallel allocation of sibling subtrees (paper section 6).

"Sibling subtrees can be processed concurrently in both the bottom-up and
top-down passes.  The amount of parallelism depends on the shape of the
tile tree ... there is adequate breadth in the tree to expect benefit."

We report the available breadth (tiles per level -- the units that could
be colored concurrently) and check the independence that would make that
safe: allocating with sibling subtrees visited in shuffled orders gives
the same program as the allocator's fixed-order walk.  No wall-clock
is reported: the allocator walks sequentially, because under CPython's
GIL threads cannot color tiles in parallel.
"""

import random

from conftest import fmt_row, report

from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.info import build_context
from repro.core.phase1 import allocate_tile
from repro.core.phase2 import bind_tile
from repro.core.spill_code import rewrite_program
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import compile_function, prepare
from repro.tiles.construction import TileTreeOptions, build_tile_tree_detailed
from repro.workloads.generators import random_workload
from repro.workloads.kernels import all_kernel_workloads

MACHINE = Machine.simple(4)


def test_tree_breadth(benchmark):
    widths = [16, 7, 7, 10, 14]
    rows = [fmt_row(
        ["workload", "tiles", "height", "max width", "parallel frac"],
        widths,
    )]
    for workload in all_kernel_workloads(8) + [
        random_workload(s, max_blocks=48, max_depth=4) for s in range(4)
    ]:
        allocator = HierarchicalAllocator()
        compile_function(workload, allocator, MACHINE)
        stats = allocator.last_context
        tree = stats.tree
        profile = tree.breadth_profile()
        tiles = len(tree)
        max_width = max(profile.values())
        # Fraction of tiles that have at least one sibling at their level:
        # the work units that benefit from concurrency.
        parallel = sum(v for v in profile.values() if v > 1) / tiles
        rows.append(fmt_row(
            [workload.label(), tiles, tree.height(), max_width,
             parallel],
            widths,
        ))
    report("E8_breadth", rows)

    benchmark(lambda: None)


def _shuffled_walk(tile, rng, children_first):
    """The subtree of *tile* in postorder (*children_first*) or preorder,
    with every tile's children visited in a random order."""
    if not children_first:
        yield tile
    children = list(tile.children)
    rng.shuffle(children)
    for child in children:
        yield from _shuffled_walk(child, rng, children_first)
    if children_first:
        yield tile


def _allocate_shuffled(fn, order_seed):
    """Allocate *fn* as ``HierarchicalAllocator.allocate`` does, but with
    sibling subtrees visited in a random order in both phases."""
    config = HierarchicalConfig()
    work = fn.clone()
    build = build_tile_tree_detailed(work, TileTreeOptions(
        conditional_tiles=config.conditional_tiles,
        max_tile_width=config.max_tile_width,
    ))
    build.tree.renumber()
    work.renumber_uids()
    ctx = build_context(work, MACHINE, build.tree, build.fixup, None)
    rng = random.Random(order_seed)
    allocations = {}
    for tile in _shuffled_walk(ctx.tree.root, rng, children_first=True):
        allocations[tile.tid] = allocate_tile(ctx, config, tile, allocations)
    for tile in _shuffled_walk(ctx.tree.root, rng, children_first=False):
        bind_tile(ctx, config, tile, allocations)
    allocations = {t.tid: allocations[t.tid] for t in ctx.tree.postorder()}
    ctx.arena.retire()
    return format_function(rewrite_program(ctx, config, allocations))


def test_sibling_order_equivalence(benchmark):
    """Section 6's claim is that sibling subtrees are independent: any
    sibling visit order must give the fixed-order walk's output."""
    widths = [10, 7, 10, 10]
    rows = [fmt_row(["workload", "tiles", "orders", "identical"], widths)]
    for seed in range(4):
        fn = prepare(random_workload(seed, max_blocks=48, max_depth=4).fn)
        allocator = HierarchicalAllocator()
        expected = format_function(allocator.allocate(fn, MACHINE).fn)
        orders = 8
        same = sum(
            _allocate_shuffled(fn, order) == expected
            for order in range(orders)
        )
        rows.append(fmt_row(
            [f"rand{seed}", len(allocator.last_context.tree), orders, same],
            widths,
        ))
        assert same == orders, f"rand{seed}: sibling order changed output"
    report("E8_parallel_equivalence", rows)

    fn = prepare(random_workload(3, max_blocks=48, max_depth=4).fn)
    benchmark(lambda: _allocate_shuffled(fn, 0))


def test_sequential_timing(benchmark):
    workload = random_workload(7, max_blocks=48, max_depth=4)
    benchmark(lambda: compile_function(
        workload, HierarchicalAllocator(), MACHINE
    ))
