"""End-to-end tests for the hierarchical allocator (the paper's system)."""

import pytest

from repro.allocators import BriggsAllocator, ChaitinAllocator
from repro.core import MEM, HierarchicalAllocator, HierarchicalConfig
from repro.ir.instructions import Opcode, is_phys
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.workloads.figure1 import FIGURE1_REGISTERS, figure1_workload
from repro.workloads.kernels import all_kernel_workloads
from repro.workloads.generators import random_workload


class TestCorrectness:
    @pytest.mark.parametrize("registers", [2, 3, 4, 6, 8])
    def test_all_kernels(self, registers):
        for workload in all_kernel_workloads(6):
            result = compile_function(
                workload, HierarchicalAllocator(), Machine.simple(registers)
            )
            assert (
                result.reference_run.returned == result.allocated_run.returned
            ), workload.label()

    def test_random_programs(self):
        for seed in range(15):
            workload = random_workload(seed)
            for registers in (2, 4):
                compile_function(
                    workload, HierarchicalAllocator(), Machine.simple(registers)
                )

    def test_output_is_physical(self):
        w = figure1_workload(5)
        result = compile_function(
            w, HierarchicalAllocator(), Machine.simple(4)
        )
        for block in result.fn.blocks.values():
            for instr in block.instrs:
                for var in instr.defs + instr.uses:
                    assert is_phys(var)


class TestFigure1:
    """The paper's worked example (experiment E1)."""

    def _results(self, registers=FIGURE1_REGISTERS, n=10):
        w = figure1_workload(n)
        machine = Machine.simple(registers)
        hier = compile_function(w, HierarchicalAllocator(), machine)
        chaitin = compile_function(w, ChaitinAllocator(), machine)
        return hier, chaitin

    def test_hierarchical_beats_chaitin(self):
        hier, chaitin = self._results()
        assert hier.spill_refs < chaitin.spill_refs

    def test_no_spill_code_inside_loops(self):
        hier, _ = self._results()
        for label in ("B2", "B3"):
            for instr in hier.fn.blocks[label].instrs:
                assert instr.op not in (Opcode.SPILL_LD, Opcode.SPILL_ST), (
                    f"spill code inside loop block {label}"
                )

    def test_chaitin_pays_inside_a_loop(self):
        _, chaitin = self._results()
        in_loop = [
            i
            for label in ("B2", "B3")
            for i in chaitin.fn.blocks[label].instrs
            if i.op in (Opcode.SPILL_LD, Opcode.SPILL_ST)
        ]
        assert in_loop

    def test_spill_refs_constant_in_trip_count(self):
        """Hierarchical spill traffic is O(1) in the trip count; Chaitin's
        grows linearly."""
        h_small, c_small = self._results(n=5)
        h_big, c_big = self._results(n=50)
        assert h_big.spill_refs == h_small.spill_refs
        assert c_big.spill_refs > c_small.spill_refs

    def test_split_allocation_exists(self):
        """E9: some variable lives in a register in one tile and in memory
        in another."""
        w = figure1_workload(10)
        allocator = HierarchicalAllocator()
        compile_function(w, allocator, Machine.simple(FIGURE1_REGISTERS))
        allocations = allocator.last_allocations
        locations = {}
        for alloc in allocations.values():
            for var, loc in alloc.phys.items():
                if var.startswith(("ts:", "tmp:")):
                    continue
                locations.setdefault(var, set()).add(
                    "mem" if loc == MEM else "reg"
                )
        assert any(locs == {"mem", "reg"} for locs in locations.values())


class TestAblationsRun:
    @pytest.mark.parametrize(
        "config",
        [
            HierarchicalConfig(preferencing=False),
            HierarchicalConfig(conditional_tiles=False),
            HierarchicalConfig(store_avoidance=False),
            HierarchicalConfig(demotion=False),
            HierarchicalConfig(spill_temp_strategy="reserve"),
        ],
        ids=["no-pref", "loops-only", "no-store-avoid", "no-demotion", "reserve"],
    )
    def test_ablations_preserve_semantics(self, config):
        for workload in all_kernel_workloads(5)[:5]:
            compile_function(
                workload, HierarchicalAllocator(config), Machine.simple(4)
            )

    def test_reserve_strategy_worse(self):
        """The 'simple solution' of reserving registers costs allocatable
        registers and loses (section 6)."""
        w = figure1_workload(10)
        machine = Machine.simple(4)
        recolor = compile_function(
            w, HierarchicalAllocator(), machine
        )
        reserve = compile_function(
            w,
            HierarchicalAllocator(
                HierarchicalConfig(spill_temp_strategy="reserve")
            ),
            machine,
        )
        assert recolor.spill_refs < reserve.spill_refs

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalConfig(spill_temp_strategy="bogus")

    def test_invalid_heuristic_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalConfig(spill_heuristic="bogus")

    @pytest.mark.parametrize("heuristic", ["cost_over_degree", "cost", "degree"])
    def test_spill_heuristics_preserve_semantics(self, heuristic):
        for workload in all_kernel_workloads(5)[:4]:
            compile_function(
                workload,
                HierarchicalAllocator(
                    HierarchicalConfig(spill_heuristic=heuristic)
                ),
                Machine.simple(3),
            )


class TestProfileGuided:
    def test_profile_frequencies_accepted(self):
        from repro.analysis.frequency import frequencies_from_profile

        w = figure1_workload(10)
        profile = simulate(w.fn, args=w.args, arrays=w.arrays).profile
        freq = frequencies_from_profile(w.fn, profile)
        result = compile_function(
            w,
            HierarchicalAllocator(HierarchicalConfig(frequencies=freq)),
            Machine.simple(4),
        )
        assert result.allocated_run.returned == result.reference_run.returned


class TestStats:
    def test_stats_populated(self):
        w = figure1_workload(8)
        result = compile_function(
            w, HierarchicalAllocator(), Machine.simple(4)
        )
        stats = result.stats
        assert stats.extra["tile_count"] >= 4
        assert stats.extra["tree_height"] >= 3
        assert stats.max_graph_nodes > 0
        assert 0 in stats.extra["breadth_profile"]

    def test_spill_blocks_recorded(self):
        w = figure1_workload(8)
        result = compile_function(
            w, HierarchicalAllocator(), Machine.simple(3)
        )
        assert result.stats.spill_block_labels
