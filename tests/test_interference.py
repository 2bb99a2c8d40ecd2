"""Tests for interference-graph construction."""

from repro.analysis.liveness import compute_liveness
from repro.graph.interference import InterferenceGraph, build_interference
from repro.ir.builder import FunctionBuilder


class TestGraphStructure:
    def test_add_edge_symmetric(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        assert g.interferes("a", "b")
        assert g.interferes("b", "a")
        assert g.degree("a") == 1

    def test_self_edge_ignored(self):
        g = InterferenceGraph()
        g.add_edge("a", "a")
        assert g.degree("a") == 0

    def test_clique(self):
        g = InterferenceGraph()
        g.add_clique(["a", "b", "c"])
        assert g.edge_count() == 3

    def test_remove_node(self):
        g = InterferenceGraph()
        g.add_clique(["a", "b", "c"])
        g.remove_node("b")
        assert "b" not in g
        assert g.degree("a") == 1

    def test_subgraph(self):
        g = InterferenceGraph()
        g.add_clique(["a", "b", "c"])
        sub = g.subgraph({"a", "b"})
        assert set(sub.nodes()) == {"a", "b"}
        assert sub.edge_count() == 1

    def test_edges_deduplicated(self):
        g = InterferenceGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert list(g.edges()) == [("a", "b")]


class TestConstruction:
    def test_simultaneously_live_conflict(self):
        b = FunctionBuilder("f", params=["p"])
        b.block("one")
        b.const("x", 1)
        b.const("y", 2)          # x live here -> conflict
        b.add("z", "x", "y")
        b.ret("z")
        fn = b.finish()
        g = build_interference(fn, compute_liveness(fn))
        assert g.interferes("x", "y")
        assert not g.interferes("x", "z")  # x dead once z defined

    def test_copy_exemption(self):
        """copy dst/src do not conflict through the copy itself."""
        b = FunctionBuilder("f", params=["p"])
        b.block("one")
        b.copy("q", "p")
        b.add("r", "q", "p")     # p still live after the copy
        b.ret("r")
        fn = b.finish()
        g = build_interference(fn, compute_liveness(fn))
        assert not g.interferes("q", "p")

    def test_copy_then_redefine_conflicts(self):
        b = FunctionBuilder("f", params=["p"])
        b.block("one")
        b.copy("q", "p")
        b.const("q", 9)          # redefinition while p live
        b.add("r", "q", "p")
        b.ret("r")
        fn = b.finish()
        g = build_interference(fn, compute_liveness(fn))
        assert g.interferes("q", "p")

    def test_loop_carried_conflicts(self, loop_fn):
        g = build_interference(loop_fn, compute_liveness(loop_fn))
        assert g.interferes("i", "s")
        assert g.interferes("i", "n")
        assert g.interferes("s", "one")

    def test_relevant_filter(self, loop_fn):
        g = build_interference(
            loop_fn,
            compute_liveness(loop_fn),
            relevant={"i", "s"},
        )
        assert set(g.nodes()) <= {"i", "s"}
        assert g.interferes("i", "s")

    def test_labels_restriction(self, loop_fn):
        g = build_interference(
            loop_fn, compute_liveness(loop_fn), labels=["entry"]
        )
        # Conflicts discovered only from defs in 'entry'.
        assert g.interferes("i", "s")
        assert "c" not in g  # c is only referenced in head

    def test_dead_def_still_noded(self):
        b = FunctionBuilder("f", params=["p"])
        b.block("one")
        b.const("dead", 1)       # never used
        b.ret("p")
        fn = b.finish()
        g = build_interference(fn, compute_liveness(fn))
        assert "dead" in g
        assert g.interferes("dead", "p")  # p live across the dead def

    def test_multi_def_instruction_conflict(self):
        from repro.ir.instructions import Instr, Opcode

        b = FunctionBuilder("f", params=["p"])
        b.block("one")
        b.emit(Instr(Opcode.CALL, defs=("a", "b"), uses=("p",), imm="id"))
        b.add("r", "a", "b")
        b.ret("r")
        fn = b.finish()
        g = build_interference(fn, compute_liveness(fn))
        assert g.interferes("a", "b")
