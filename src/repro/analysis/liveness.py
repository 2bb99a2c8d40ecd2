"""Live-variable analysis.

Classic backward iterative dataflow over the CFG.  Besides block-level
``live_in``/``live_out`` sets the module exposes per-instruction live sets
(needed by interference construction) and per-edge liveness (needed to place
spill code on tile entry/exit edges, where the paper's ``Live_e(v)`` term is
evaluated).

There is one engine: the function is lowered into a
:class:`~repro.perf.arena.FunctionArena` and
``FunctionArena.compute_liveness`` solves the equations over its flat
tables.  Every live set is a Python-int bitset over the arena's
:class:`~repro.perf.VarIndex`, so the transfer function of a block is two
machine-word operations (``use | (out & ~def)``).  The block-level
frozenset dicts are a façade materialized from the bitsets; per-instruction
sets are bitsets only (``index.frozenset_of`` converts).  The string-set
oracle in :mod:`repro.analysis.reference` checks this engine in the tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.ir.function import Function
from repro.perf.arena import FunctionArena, build_arena


class Liveness:
    """Result of live-variable analysis on one function.

    ``arena`` is the lowering the analysis ran on and ``index`` its
    interning table, shared by every bitset this object hands out;
    ``live_in_bits``/``live_out_bits`` map block label to the block-level
    bitsets and ``live_in``/``live_out`` to the same sets as frozensets.

    Per-instruction bitsets are scanned from the arena's tables and
    memoized per block, so they describe the function as it was lowered:
    once the arena is retired (the function is about to be mutated) the
    per-instruction queries raise ``RuntimeError`` instead of answering
    for instructions that no longer exist.
    """

    def __init__(self, arena: FunctionArena) -> None:
        self.arena = arena
        self.index = index = arena.index
        labels = arena.labels
        self.live_in_bits: Dict[str, int] = dict(zip(labels, arena.live_in))
        self.live_out_bits: Dict[str, int] = dict(zip(labels, arena.live_out))
        frozenset_of = index.frozenset_of
        self.live_in: Dict[str, FrozenSet[str]] = {
            label: frozenset_of(bits) for label, bits in self.live_in_bits.items()
        }
        self.live_out: Dict[str, FrozenSet[str]] = {
            label: frozenset_of(bits) for label, bits in self.live_out_bits.items()
        }
        # Per-instruction memos, filled lazily per block label.
        self._instr_out_bits: Dict[str, List[int]] = {}
        self._instr_in_bits: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # edge-level liveness
    # ------------------------------------------------------------------
    def live_on_edge(self, src: str, dst: str) -> FrozenSet[str]:
        """Variables live along control edge ``src -> dst``.

        Without phi nodes this is exactly ``live_in(dst)``; the paper's
        ``Live_e(v)`` predicate is membership in this set.
        """
        return self.live_in[dst]

    def live_on_edge_bits(self, src: str, dst: str) -> int:
        return self.live_in_bits[dst]

    # ------------------------------------------------------------------
    # instruction-level liveness
    # ------------------------------------------------------------------
    def instr_live_out_bits(self, label: str) -> List[int]:
        """For each instruction in block *label*, the bitset of variables
        live immediately *after* it (memoized)."""
        self.arena.check_current("instr_live_out_bits")
        cached = self._instr_out_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[0]
        return cached

    def instr_live_in_bits(self, label: str) -> List[int]:
        """Bitsets of variables live immediately *before* each instruction
        (memoized)."""
        self.arena.check_current("instr_live_in_bits")
        cached = self._instr_in_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[1]
        return cached

    def _scan_block(self, label: str) -> Tuple[List[int], List[int]]:
        """One backward pass filling both per-instruction memo lists."""
        arena = self.arena
        outs, ins = arena.scan_block(arena.block_id[label])
        self._instr_out_bits[label] = outs
        self._instr_in_bits[label] = ins
        return outs, ins


def liveness_from_arena(arena: FunctionArena) -> Liveness:
    """Block-level liveness of the arena's function, solved by
    ``FunctionArena.compute_liveness`` (a bitset worklist over the CSR
    block adjacency).  The returned object carries the arena, which backs
    its per-instruction scans."""
    if not arena.live_in and arena.instrs:
        arena.compute_liveness()
    elif not arena.live_in:
        arena.live_in = [0] * len(arena.labels)
        arena.live_out = [0] * len(arena.labels)
    return Liveness(arena)


def compute_liveness(fn: Function) -> Liveness:
    """Live-variable analysis of *fn*: lower it into a fresh arena and
    solve over it (``liveness_from_arena(build_arena(fn))``)."""
    return liveness_from_arena(build_arena(fn))
