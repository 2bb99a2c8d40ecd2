"""Tests for live-variable analysis."""

from repro.analysis.liveness import compute_liveness
from repro.analysis.reference import block_use_def
from repro.ir.builder import FunctionBuilder


class TestBlockUseDef:
    def test_upward_exposed_only(self, loop_fn):
        uses, defs = block_use_def(loop_fn.blocks["body"])
        # body: i = i + one; s = s + i -- i and one and s are upward exposed
        assert uses == {"i", "one", "s"}
        assert defs == {"i", "s"}

    def test_killed_use_not_exposed(self):
        b = FunctionBuilder("f", params=["a"])
        b.block("one")
        b.const("x", 1)
        b.add("y", "x", "a")  # x defined above: not upward exposed
        b.ret("y")
        fn = b.finish()
        uses, defs = block_use_def(fn.blocks["one"])
        assert "x" not in uses
        assert "a" in uses


class TestLiveness:
    def test_loop_live_sets(self, loop_fn):
        lv = compute_liveness(loop_fn)
        assert lv.live_in["head"] >= {"i", "n", "one", "s"}
        assert "s" in lv.live_in["done"]
        assert lv.live_out[loop_fn.stop_label] == frozenset()

    def test_dead_after_last_use(self, diamond_fn):
        lv = compute_liveness(diamond_fn)
        # c is consumed by the branch; dead in both arms.
        assert "c" not in lv.live_in["then"]
        assert "c" not in lv.live_in["els"]

    def test_live_on_edge_is_target_live_in(self, loop_fn):
        lv = compute_liveness(loop_fn)
        assert lv.live_on_edge("head", "body") == lv.live_in["body"]

    def test_instr_live_out_shrinks_backwards(self, loop_fn):
        lv = compute_liveness(loop_fn)
        outs = lv.instr_live_out_bits("body")
        assert len(outs) == len(loop_fn.blocks["body"].instrs)
        # After the final branch, liveness equals block live-out.
        assert lv.index.frozenset_of(outs[-1]) == lv.live_out["body"]

    def test_instr_live_in_first_matches_block(self, loop_fn):
        lv = compute_liveness(loop_fn)
        ins = lv.instr_live_in_bits("body")
        assert lv.index.frozenset_of(ins[0]) == lv.live_in["body"]

    def test_local_dataflow_equation(self, loop_fn):
        """live_in = use U (live_out - def) for every block."""
        lv = compute_liveness(loop_fn)
        for label, block in loop_fn.blocks.items():
            uses, defs = block_use_def(block)
            expected = frozenset(uses | (lv.live_out[label] - defs))
            assert lv.live_in[label] == expected

    def test_live_out_is_union_of_successor_ins(self, diamond_fn):
        lv = compute_liveness(diamond_fn)
        for label, block in diamond_fn.blocks.items():
            expected = frozenset().union(
                *(lv.live_in[s] for s in block.succ_labels)
            ) if block.succ_labels else frozenset()
            assert lv.live_out[label] == expected

    def test_params_live_at_entry_when_used(self, loop_fn):
        lv = compute_liveness(loop_fn)
        assert "n" in lv.live_in[loop_fn.start_label]

    def test_live_through_blocks(self, loop_fn):
        lv = compute_liveness(loop_fn)
        through = lv.live_in["body"] | lv.live_out["body"]
        assert {"i", "s", "n", "one"} <= set(through)
