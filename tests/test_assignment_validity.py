"""Point-wise validity of the hierarchical allocator's assignments.

Differential simulation catches most wrong allocations, but two variables
that share a register could in principle hold equal *values* on the tested
inputs.  This suite checks the assignment property directly: at every
instruction point of every tile, simultaneously-live variables bound to
registers at that tile hold *distinct* registers.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MEM, HierarchicalConfig
from repro.core.info import build_context
from repro.core.phase1 import run_phase1
from repro.core.phase2 import run_phase2
from repro.machine.target import Machine
from repro.pipeline import prepare
from repro.tiles.construction import build_tile_tree_detailed
from repro.workloads.figure1 import figure1
from repro.workloads.generators import random_program
from repro.workloads.kernels import all_kernel_workloads


def bound_phases(fn, registers):
    prepared = prepare(fn.clone())
    build = build_tile_tree_detailed(prepared)
    ctx = build_context(
        build.tree.fn, Machine.simple(registers), build.tree, build.fixup, None
    )
    config = HierarchicalConfig()
    allocations = run_phase1(ctx, config)
    run_phase2(ctx, config, allocations)
    return ctx, allocations


def _copy_classes(fn):
    """Union-find over copy/move pairs: variables in one class may hold the
    same value simultaneously, so the classic copy exemption legitimately
    lets them share a register while both are live."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, instr in fn.instructions():
        if instr.is_copy_like and instr.defs and instr.uses:
            ra, rb = find(instr.defs[0]), find(instr.uses[0])
            if ra != rb:
                parent[ra] = rb
    return find


def assert_pointwise_distinct(ctx, allocations):
    """At every instruction, live variables bound to the same register at
    the owning tile's level must be copy-related (value-equal); any other
    sharing is a genuine miscompile."""
    same_value = _copy_classes(ctx.fn)
    for tile in ctx.tree.preorder():
        alloc = allocations[tile.tid]
        for label in tile.own_blocks():
            live_in = ctx.liveness.instr_live_in_bits(label)
            live_out = ctx.liveness.instr_live_out_bits(label)
            for point in list(live_in) + list(live_out):
                regs = {}
                for var in sorted(ctx.liveness.index.frozenset_of(point)):
                    loc = alloc.phys.get(var)
                    if loc is None or loc == MEM:
                        continue
                    clash = regs.get(loc)
                    if clash is not None:
                        assert same_value(var) == same_value(clash), (
                            f"tile #{tile.tid} block {label}: {var} and "
                            f"{clash} both live in {loc} without being "
                            "copy-related"
                        )
                    regs[loc] = var


class TestKernels:
    @pytest.mark.parametrize("registers", [2, 3, 4, 6])
    def test_all_kernels_pointwise_valid(self, registers):
        for workload in all_kernel_workloads(6):
            ctx, allocations = bound_phases(workload.fn, registers)
            assert_pointwise_distinct(ctx, allocations)

    def test_figure1_pointwise_valid(self):
        ctx, allocations = bound_phases(figure1(), 4)
        assert_pointwise_distinct(ctx, allocations)


@given(seed=st.integers(0, 10_000), registers=st.sampled_from([2, 3, 4]))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_programs_pointwise_valid(seed, registers):
    fn = random_program(seed, break_prob=0.2)
    ctx, allocations = bound_phases(fn, registers)
    assert_pointwise_distinct(ctx, allocations)
