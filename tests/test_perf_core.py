"""Tests for the performance core (repro.perf) and its consumers.

Covers the interning layer and bitset helpers, the stage timers, the
CFG-query caches and their invalidation, independence of sibling
subtrees (any sibling visit order gives the same allocation), determinism
across processes with different ``PYTHONHASHSEED`` values, and the
duplicated-CBR-arm spill-placement regression.  The bitset analyses are
checked against the string-set oracle in ``tests/test_arena_analysis.py``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.graph.interference import InterferenceGraph
from repro.ir.builder import FunctionBuilder
from repro.ir.printer import format_function
from repro.machine.simulator import simulate
from repro.machine.target import Machine
from repro.perf import StageTimers, VarIndex, bit_count, iter_bits
from repro.pipeline import compile_function
from repro.workloads.generators import random_program, random_workload

SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestVarIndex:
    def test_intern_assigns_dense_stable_ids(self):
        idx = VarIndex()
        assert idx.intern("a") == 0
        assert idx.intern("b") == 1
        assert idx.intern("a") == 0  # stable on re-intern
        assert len(idx) == 2
        assert idx.names() == ["a", "b"]

    def test_roundtrip_mask_frozenset(self):
        idx = VarIndex(["x", "y", "z"])
        mask = idx.mask_of(["z", "x"])
        assert idx.frozenset_of(mask) == frozenset({"x", "z"})
        assert idx.members(mask) == ["x", "z"]  # id order

    def test_mask_of_interns_new_names(self):
        idx = VarIndex()
        mask = idx.mask_of(["p", "q"])
        assert bit_count(mask) == 2
        assert "p" in idx and "q" in idx

    def test_mask_of_known_skips_unknown(self):
        idx = VarIndex(["a"])
        mask = idx.mask_of_known(["a", "nope"])
        assert idx.frozenset_of(mask) == frozenset({"a"})
        assert "nope" not in idx

    def test_growth_keeps_old_bitsets_valid(self):
        idx = VarIndex(["a", "b"])
        old = idx.mask_of(["a", "b"])
        idx.intern("c")
        assert idx.frozenset_of(old) == frozenset({"a", "b"})

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestStageTimers:
    def test_accumulates_per_stage(self):
        timers = StageTimers()
        with timers.stage("a"):
            pass
        with timers.stage("a"):
            pass
        timers.add("b", 0.5)
        times = timers.as_dict()
        assert set(times) == {"a", "b"}
        assert times["a"] >= 0.0
        assert times["b"] == pytest.approx(0.5)
        assert timers.total() == pytest.approx(sum(times.values()))

    def test_stage_records_on_exception(self):
        timers = StageTimers()
        with pytest.raises(RuntimeError):
            with timers.stage("boom"):
                raise RuntimeError("x")
        assert "boom" in timers.as_dict()


class TestFunctionCfgCaches:
    def _fn(self):
        b = FunctionBuilder("f", params=["n"])
        b.block("one")
        b.const("x", 1)
        b.br("two")
        b.block("two")
        b.add("y", "x", "n")
        b.ret("y")
        return b.finish()

    def test_queries_are_cached(self):
        fn = self._fn()
        assert fn.rpo() is fn.rpo()
        assert fn.predecessors_map() is fn.predecessors_map()
        assert fn.edges() is fn.edges()

    def test_mutation_invalidates(self):
        fn = self._fn()
        before_edges = fn.edges()
        version = fn.cfg_version
        fn.insert_block_on_edge("one", "two")
        assert fn.cfg_version > version
        assert fn.edges() is not before_edges
        assert ("one", "two") not in fn.edges()

    def test_allocators_see_fresh_cfg_after_invalidate(self):
        fn = self._fn()
        fn.rpo()
        new = fn.insert_block_on_edge("one", "two")
        assert new.label in fn.rpo()


class TestInsertBlockAllOccurrences:
    def _cbr_same_target(self):
        b = FunctionBuilder("g", params=["c"])
        b.block("top")
        b.cbr("c", "join", "join")
        b.block("join")
        b.ret("c")
        return b.finish()

    def test_default_redirects_first_arm_only(self):
        fn = self._cbr_same_target()
        new = fn.insert_block_on_edge("top", "join")
        assert fn.blocks["top"].succ_labels == [new.label, "join"]

    def test_all_occurrences_redirects_both_arms(self):
        fn = self._cbr_same_target()
        new = fn.insert_block_on_edge("top", "join", all_occurrences=True)
        assert fn.blocks["top"].succ_labels == [new.label, new.label]


class TestSubgraph:
    def test_induced_subgraph(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        g.add_node("e")
        sub = g.subgraph({"b", "c", "e"})
        assert sorted(sub.nodes()) == ["b", "c", "e"]
        assert sub.interferes("b", "c")
        assert not sub.interferes("b", "a")
        assert sub.degree("e") == 0

    def test_subgraph_ignores_absent_nodes(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        sub = g.subgraph({"a", "zz"})
        assert sub.nodes() == ["a"]

    def test_subgraph_does_not_alias_adjacency(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        sub = g.subgraph({"a", "b"})
        sub.remove_node("a")
        assert g.interferes("a", "b")


def _shuffled_postorder(tile, rng):
    children = list(tile.children)
    rng.shuffle(children)
    for child in children:
        yield from _shuffled_postorder(child, rng)
    yield tile


def _shuffled_preorder(tile, rng):
    yield tile
    children = list(tile.children)
    rng.shuffle(children)
    for child in children:
        yield from _shuffled_preorder(child, rng)


@given(
    seed=SEEDS,
    registers=st.sampled_from([2, 3, 4, 6]),
    order_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@COMMON
def test_sibling_visit_order_is_irrelevant(seed, registers, order_seed):
    """Section 6: sibling subtrees are independent in both phases.

    Colors every tile in a postorder whose children are visited in a
    random order, binds in a preorder with shuffled children, and
    requires the rewritten program and every tile's physical locations
    to equal the allocator's fixed-order walk exactly.  Each example
    tests a different schedule, which a run of a thread pool could not
    promise.
    """
    from repro.core.info import build_context
    from repro.core.phase1 import allocate_tile
    from repro.core.phase2 import bind_tile
    from repro.core.spill_code import rewrite_program
    from repro.tiles.construction import (
        TileTreeOptions,
        build_tile_tree_detailed,
    )

    fn = random_program(seed)
    machine = Machine.simple(registers)
    config = HierarchicalConfig()
    allocator = HierarchicalAllocator(config)
    expected = allocator.allocate(fn.clone(), machine)
    expected_phys = {
        tid: list(alloc.phys.items())
        for tid, alloc in allocator.last_allocations.items()
    }

    # The same set-up as HierarchicalAllocator.allocate.
    work = fn.clone()
    build = build_tile_tree_detailed(work, TileTreeOptions(
        conditional_tiles=config.conditional_tiles,
        max_tile_width=config.max_tile_width,
    ))
    build.tree.renumber()
    work.renumber_uids()
    ctx = build_context(
        work, machine, build.tree, build.fixup, config.frequencies
    )
    rng = random.Random(order_seed)
    allocations = {}
    for tile in _shuffled_postorder(ctx.tree.root, rng):
        allocations[tile.tid] = allocate_tile(ctx, config, tile, allocations)
    for tile in _shuffled_preorder(ctx.tree.root, rng):
        bind_tile(ctx, config, tile, allocations)
    allocations = {
        tile.tid: allocations[tile.tid] for tile in ctx.tree.postorder()
    }
    if ctx.arena is not None:
        ctx.arena.retire()
    out = rewrite_program(ctx, config, allocations)

    assert format_function(out) == format_function(expected.fn)
    assert {
        tid: list(alloc.phys.items()) for tid, alloc in allocations.items()
    } == expected_phys


_CROSS_PROCESS_SCRIPT = """
import hashlib, json, sys
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.workloads.generators import random_program

seed, registers = (int(a) for a in sys.argv[1:3])
out = HierarchicalAllocator(HierarchicalConfig()).allocate(
    random_program(seed), Machine.simple(registers)
)
text = format_function(out.fn)
print(json.dumps({
    "sha": hashlib.sha256(text.encode()).hexdigest(),
    "spilled": sorted(out.stats.spilled_vars),
}))
"""


class TestCrossProcessDeterminism:
    """Allocation must be bit-identical across *processes*: Python salts
    string hashes per process, so any decision leaking set/dict iteration
    order diverges here even though within-process runs agree."""

    HASH_SEEDS = ("0", "1", "12345")

    @staticmethod
    def _run(program_seed, registers, hash_seed):
        import repro

        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        prior = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
        proc = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT,
             str(program_seed), str(registers)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("program_seed,registers", [(7, 3), (501, 4)])
    def test_output_identical_across_hash_seeds(
        self, program_seed, registers
    ):
        runs = {
            hash_seed: self._run(program_seed, registers, hash_seed)
            for hash_seed in self.HASH_SEEDS
        }
        baseline = runs[self.HASH_SEEDS[0]]
        for hash_seed, run in runs.items():
            assert run == baseline, (
                f"program seed {program_seed}: PYTHONHASHSEED={hash_seed} "
                f"produced different allocation output"
            )


class TestDuplicatedEdgeSpillRegression:
    """Boundary spill code must intercept *every* traversal of an edge
    whose CBR arms coincide (regression: a store planned on such an edge
    previously landed on the first arm only, so the false arm reloaded
    from a never-stored slot)."""

    def test_optimized_program_seed_501_allocates(self):
        from repro.opt import optimize
        from repro.pipeline import Workload

        w = random_workload(501)
        out = optimize(w.fn)
        workload = Workload(out, w.args, w.arrays, name="opt")
        result = compile_function(
            workload, HierarchicalAllocator(), Machine.simple(3)
        )
        assert result.allocated_run.returned == result.reference_run.returned

    def test_spill_block_on_duplicated_edge_covers_both_arms(self):
        """Direct check on the rewritten CFG: after allocation under heavy
        pressure, no CBR may keep a bare arm to a block that the other arm
        reaches through a spill block carrying stores."""
        from repro.opt import optimize
        from repro.pipeline import Workload

        w = random_workload(501)
        out = optimize(w.fn)
        workload = Workload(out, w.args, w.arrays, name="opt")
        result = compile_function(
            workload, HierarchicalAllocator(), Machine.simple(3)
        )
        fn = result.fn
        for label, block in fn.blocks.items():
            succ = block.succ_labels
            if len(succ) == 2 and succ[0] != succ[1]:
                # If one arm goes through a fix-up block into X and the
                # other goes to X directly, the fix-up block must be empty
                # (otherwise one path skips mandatory boundary code).
                for a, b in ((succ[0], succ[1]), (succ[1], succ[0])):
                    via = fn.blocks[a]
                    if (
                        len(via.succ_labels) == 1
                        and via.succ_labels[0] == b
                        and a.startswith("sp.")
                    ):
                        assert not via.instrs, (
                            f"spill block {a} bypassed by {label}->{b}"
                        )
