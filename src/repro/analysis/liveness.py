"""Live-variable analysis.

Classic backward iterative dataflow over the CFG.  Besides block-level
``live_in``/``live_out`` sets the module exposes per-instruction live sets
(needed by interference construction) and per-edge liveness (needed to place
spill code on tile entry/exit edges, where the paper's ``Live_e(v)`` term is
evaluated).

Internally the analysis runs over Python-int **bitsets**: variable names are
interned into a dense :class:`~repro.perf.VarIndex` and every live set is a
single int, so the transfer function of a block is two machine-word
operations (``use | (out & ~def)``) instead of Python set algebra.  The
string-facing API (frozensets keyed by label) is a façade materialized from
the bitsets; hot callers can use the ``*_bits`` twins directly.
Per-instruction sets are memoized per block -- tiles revisit the same blocks
many times per coloring round -- with :meth:`Liveness.invalidate` as the
explicit escape hatch should a caller mutate instructions in place.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.instructions import Instr
from repro.perf.varindex import VarIndex


class Liveness:
    """Result of live-variable analysis on one function.

    ``index`` is the interning table shared by every bitset this object
    hands out; ``live_in_bits``/``live_out_bits`` map block label to the
    block-level bitsets.  The classic ``live_in``/``live_out`` frozenset
    dicts are kept for compatibility and convenience.
    """

    def __init__(
        self,
        fn: Function,
        index: VarIndex,
        live_in_bits: Dict[str, int],
        live_out_bits: Dict[str, int],
        arena=None,
    ) -> None:
        self._fn = fn
        self.index = index
        #: optional :class:`~repro.perf.arena.FunctionArena` backing the
        #: per-instruction scans with precomputed operand bitsets; ignored
        #: once the arena is retired (function mutated).
        self.arena = arena
        self.live_in_bits = live_in_bits
        self.live_out_bits = live_out_bits
        self.live_in: Dict[str, FrozenSet[str]] = {
            label: index.frozenset_of(bits)
            for label, bits in live_in_bits.items()
        }
        self.live_out: Dict[str, FrozenSet[str]] = {
            label: index.frozenset_of(bits)
            for label, bits in live_out_bits.items()
        }
        # Per-instruction memos, filled lazily per block label.
        self._instr_out_bits: Dict[str, List[int]] = {}
        self._instr_in_bits: Dict[str, List[int]] = {}
        self._instr_out_sets: Dict[str, List[FrozenSet[str]]] = {}
        self._instr_in_sets: Dict[str, List[FrozenSet[str]]] = {}

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, label: Optional[str] = None) -> None:
        """Drop memoized per-instruction sets (for *label*, or all).

        Block-level results are *not* recomputed -- a CFG mutation needs a
        fresh :func:`compute_liveness`; this only covers in-place edits to a
        block's instruction list that keep block-level liveness intact.
        """
        if label is None:
            self._instr_out_bits.clear()
            self._instr_in_bits.clear()
            self._instr_out_sets.clear()
            self._instr_in_sets.clear()
        else:
            self._instr_out_bits.pop(label, None)
            self._instr_in_bits.pop(label, None)
            self._instr_out_sets.pop(label, None)
            self._instr_in_sets.pop(label, None)

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
        cached = self._instr_out_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[0]
        return cached

    def instr_live_in_bits(self, label: str) -> List[int]:
        """Bitsets of variables live immediately *before* each instruction
        (memoized)."""
        cached = self._instr_in_bits.get(label)
        if cached is None:
            cached = self._scan_block(label)[1]
        return cached

    def _scan_block(self, label: str) -> Tuple[List[int], List[int]]:
        """One backward pass filling both per-instruction memo lists."""
        arena = self.arena
        if arena is not None and not arena.retired:
            # Same backward recurrence over the arena's precomputed
            # per-instruction bitsets -- no interning, no object walk.
            outs, ins = arena.scan_block(arena.block_id[label])
            self._instr_out_bits[label] = outs
            self._instr_in_bits[label] = ins
            return outs, ins
        block = self._fn.blocks[label]
        index = self.index
        live = self.live_out_bits[label]
        n = len(block.instrs)
        outs: List[int] = [0] * n
        ins: List[int] = [0] * n
        for i in range(n - 1, -1, -1):
            instr = block.instrs[i]
            outs[i] = live
            if instr.defs:
                live &= ~index.mask_of(instr.defs)
            if instr.uses:
                live |= index.mask_of(instr.uses)
            ins[i] = live
        self._instr_out_bits[label] = outs
        self._instr_in_bits[label] = ins
        return outs, ins

    def instr_live_out(self, label: str) -> List[FrozenSet[str]]:
        """For each instruction in block *label*, the set of variables live
        immediately *after* it (the set interference construction needs at
        each definition point)."""
        cached = self._instr_out_sets.get(label)
        if cached is None:
            index = self.index
            cached = [
                index.frozenset_of(bits)
                for bits in self.instr_live_out_bits(label)
            ]
            self._instr_out_sets[label] = cached
        return cached

    def instr_live_in(self, label: str) -> List[FrozenSet[str]]:
        """Variables live immediately *before* each instruction."""
        cached = self._instr_in_sets.get(label)
        if cached is None:
            index = self.index
            cached = [
                index.frozenset_of(bits)
                for bits in self.instr_live_in_bits(label)
            ]
            self._instr_in_sets[label] = cached
        return cached

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def live_through_blocks(self, labels) -> FrozenSet[str]:
        """Variables live into or out of any block in *labels*."""
        mask = 0
        for label in labels:
            mask |= self.live_in_bits[label] | self.live_out_bits[label]
        return self.index.frozenset_of(mask)


def block_use_def(block) -> Tuple[Set[str], Set[str]]:
    """(upward-exposed uses, defs) of a block."""
    uses: Set[str] = set()
    defs: Set[str] = set()
    for instr in block.instrs:
        for u in instr.uses:
            if u not in defs:
                uses.add(u)
        defs.update(instr.defs)
    return uses, defs


def _block_use_def_bits(block, index: VarIndex) -> Tuple[int, int]:
    """(upward-exposed uses, defs) of a block as bitsets."""
    use_mask = 0
    def_mask = 0
    intern = index.intern
    for instr in block.instrs:
        for u in instr.uses:
            bit = 1 << intern(u)
            if not def_mask & bit:
                use_mask |= bit
        for d in instr.defs:
            def_mask |= 1 << intern(d)
    return use_mask, def_mask


def compute_liveness(
    fn: Function, index: Optional[VarIndex] = None
) -> Liveness:
    """Iterative backward live-variable analysis (bitset worklist).

    Pass *index* to share an interning table across analyses of the same
    function; by default a fresh one is built (deterministically: names are
    interned in block/instruction order).
    """
    if index is None:
        index = VarIndex()
    use_map: Dict[str, int] = {}
    def_map: Dict[str, int] = {}
    for label, block in fn.blocks.items():
        use_map[label], def_map[label] = _block_use_def_bits(block, index)

    live_in: Dict[str, int] = {label: 0 for label in fn.blocks}
    live_out: Dict[str, int] = {label: 0 for label in fn.blocks}

    # Process in reverse RPO for fast convergence; include unreachable
    # blocks afterwards so partially-built functions still analyze.
    order = list(fn.rpo())
    order_set = set(order)
    order += [label for label in fn.blocks if label not in order_set]
    worklist = list(reversed(order))
    in_worklist = set(worklist)
    preds = fn.predecessors_map()
    blocks = fn.blocks

    while worklist:
        label = worklist.pop()
        in_worklist.discard(label)
        new_out = 0
        for succ in blocks[label].succ_labels:
            new_out |= live_in[succ]
        new_in = use_map[label] | (new_out & ~def_map[label])
        if new_out != live_out[label] or new_in != live_in[label]:
            live_out[label] = new_out
            live_in[label] = new_in
            for pred in preds[label]:
                if pred not in in_worklist:
                    worklist.append(pred)
                    in_worklist.add(pred)

    return Liveness(fn, index, live_in, live_out)


def liveness_from_arena(arena) -> Liveness:
    """Block-level liveness computed over a prepared
    :class:`~repro.perf.arena.FunctionArena` (the flat cold path).

    Equivalent to :func:`compute_liveness` on the arena's function: both
    solve the same dataflow equations to their unique least fixed point,
    this one with the arena's bitset worklist over CSR block adjacency
    (``FunctionArena.compute_liveness``).  The returned object carries
    the arena so per-instruction scans skip the interning walk.
    """
    if not arena.live_in and arena.instrs:
        arena.compute_liveness()
    elif not arena.live_in:
        arena.live_in = [0] * len(arena.labels)
        arena.live_out = [0] * len(arena.labels)
    labels = arena.labels
    live_in = {label: arena.live_in[bid] for bid, label in enumerate(labels)}
    live_out = {label: arena.live_out[bid] for bid, label in enumerate(labels)}
    return Liveness(arena.fn, arena.index, live_in, live_out, arena=arena)
