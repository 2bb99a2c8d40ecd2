"""End-to-end tests for irreducible control flow.

The paper (Appendix A): "all blocks in an irreducible loop that are reached
by a forward control flow edge from a basic block outside the loop can be
combined in the tile tree and treated as a single summary loop top."  Our
loop forest groups the whole multiple-entry region into one irreducible
tile; everything downstream (liveness, coloring, spill placement,
rewriting) must still be correct.
"""

import pytest

from repro.allocators import BriggsAllocator, ChaitinAllocator
from repro.core import HierarchicalAllocator
from repro.ir.basic_block import BasicBlock
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.instructions import Instr, Opcode
from repro.ir.validate import validate_function
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.tiles import build_tile_tree, validate_tile_tree


def irreducible_fn():
    """Two-entry cycle: entry branches into the middle of a ping/pong pair.

    ping and pong bounce control between each other while decrementing a
    counter; entry may enter at either, so neither dominates the other.
    """
    b = FunctionBuilder("irred", params=["n", "w"])
    b.block("entry")
    b.const("one", 1)
    b.const("acc", 0)
    b.copy("i", "n")
    b.cbr("w", "ping", "pong")
    b.block("ping")
    b.add("acc", "acc", "one")          # +1 per visit to ping
    b.sub("i", "i", "one")
    b.cbr("i", "pong", "out")
    b.block("pong")
    b.add("acc", "acc", "acc")          # doubling per visit to pong
    b.sub("i", "i", "one")
    b.cbr("i", "ping", "out")
    b.block("out")
    b.ret("acc")
    return b.finish()


def nested_irreducible_fn():
    """An irreducible ping/pong region inside a reducible outer loop."""
    b = FunctionBuilder("nested_irred", params=["n", "w"])
    b.block("entry")
    b.const("one", 1)
    b.const("acc", 0)
    b.copy("o", "n")
    b.br("oh")
    b.block("oh")
    b.copy("i", "n")
    b.cbr("w", "ping", "pong")
    b.block("ping")
    b.add("acc", "acc", "one")
    b.sub("i", "i", "one")
    b.cbr("i", "pong", "onext")
    b.block("pong")
    b.add("acc", "acc", "one")
    b.sub("i", "i", "one")
    b.cbr("i", "ping", "onext")
    b.block("onext")
    b.sub("o", "o", "one")
    b.cbr("o", "oh", "done")
    b.block("done")
    b.ret("acc")
    return b.finish()


class TestStructure:
    def test_cfg_valid(self):
        validate_function(irreducible_fn())

    def test_tile_tree_legal(self):
        fn = irreducible_fn()
        tree = build_tile_tree(fn)
        validate_tile_tree(tree)
        kinds = [t.kind for t in tree.preorder()]
        assert "irreducible" in kinds

    def test_irreducible_tile_covers_cycle(self):
        fn = irreducible_fn()
        tree = build_tile_tree(fn)
        tile = next(t for t in tree.preorder() if t.kind == "irreducible")
        assert {"ping", "pong"} <= tile.all_blocks

    def test_semantics(self):
        fn = irreducible_fn()
        a = simulate(fn, args={"n": 5, "w": 1})
        b = simulate(fn, args={"n": 5, "w": 0})
        assert a.returned != b.returned  # entry point matters


class TestAllocation:
    @pytest.mark.parametrize(
        "allocator_cls",
        [HierarchicalAllocator, ChaitinAllocator, BriggsAllocator],
    )
    @pytest.mark.parametrize("registers", [2, 3, 4, 6])
    @pytest.mark.parametrize("which", [0, 1])
    def test_correct_at_all_pressures(self, allocator_cls, registers, which):
        workload = Workload(
            irreducible_fn(), {"n": 6, "w": which}, {}, name="irred"
        )
        result = compile_function(
            workload, allocator_cls(), Machine.simple(registers)
        )
        assert result.allocated_run.returned == result.reference_run.returned

    def test_hierarchical_handles_nested_irreducible(self):
        """An irreducible region inside a reducible loop."""
        fn = nested_irreducible_fn()
        validate_function(fn)
        tree = build_tile_tree(fn.clone())
        validate_tile_tree(tree)
        for which in (0, 1):
            workload = Workload(fn, {"n": 4, "w": which}, {}, name="ni")
            result = compile_function(
                workload, HierarchicalAllocator(), Machine.simple(3)
            )
            assert (
                result.allocated_run.returned == result.reference_run.returned
            )
