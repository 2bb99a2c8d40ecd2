"""Flat, array-backed per-function analysis arena.

The cold allocation path used to re-walk ``Instr`` objects (and re-intern
their operand names) once per analysis: liveness, interference, metrics,
spill-site discovery and preferencing each traversed the object CFG.  A
:class:`FunctionArena` lowers the function **once** into flat parallel
tables -- per-instruction def/use/write bitsets over the shared
:class:`~repro.perf.varindex.VarIndex`, per-block instruction ranges, block
adjacency in CSR form -- and every later analysis runs over machine words.

Layout (all tables indexed by dense ids, assigned in deterministic
first-seen order):

* **variables**: interned into ``index`` per block in ``fn.blocks``
  order, per instruction uses first, then defs; clobber-only names come
  after all of those.  Vids, and therefore interference node order, are
  a pure function of the function's text.  Bitsets over the index are
  plain Python ints, so width is unbounded.
* **blocks**: ``labels[bid]``/``block_id[label]``; instructions of block
  *bid* occupy the flat range ``block_start[bid]:block_start[bid+1]``.
* **instructions**: parallel bitset lists ``i_defs``/``i_uses``,
  ``i_written`` (defs and clobbers) and ``i_ref`` (everything referenced),
  ``i_written_vids`` (def+clobber vids in operand order, for
  def-point interference), ``i_exempt`` (copy-exemption bit) and
  ``instrs`` (the original ``Instr`` objects, for the rare consumers that
  need operand order or immediates).
* **CFG**: successor/predecessor adjacency in CSR form
  (``succ_indptr``/``succ_ids`` and the ``pred_*`` twins), as plain
  Python lists.

Every analysis runs over an arena: liveness, interference construction,
the allocator's tile classification and operand-temporary insertion have
no second lowering.  The string-set oracle in
:mod:`repro.analysis.reference` checks them in the tests.

Invalidation: the arena is a snapshot.  It is valid from construction
until the function is mutated (CFG edits *or* in-place instruction edits);
the allocator calls :meth:`FunctionArena.retire` before the spill-rewrite
stage, after which the per-instruction queries (per-instruction liveness,
interference construction, block digests) raise ``RuntimeError``.  See
DESIGN.md, "Arena and CSR layout".
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.function import Function
from repro.perf.varindex import VarIndex


class FunctionArena:
    """Immutable flat lowering of one function (see module docstring)."""

    __slots__ = (
        "fn", "index", "cfg_version", "labels", "block_id",
        "block_start", "instrs", "i_defs", "i_uses",
        "i_written", "i_ref", "i_exempt", "i_written_vids",
        "block_use", "block_def", "block_ref",
        "succ_indptr", "succ_ids", "pred_indptr", "pred_ids",
        "live_in", "live_out", "budget",
        "_var_ref_blocks", "_retired",
        "_var_def_bmask", "_block_digests",
    )

    def __init__(self, fn: Function, index: VarIndex, budget=None) -> None:
        self.fn = fn
        self.index = index
        self.cfg_version = getattr(fn, "cfg_version", None)
        self.budget = budget
        self._retired = False

        # ---- pass 1: interning (per block, per instruction: uses first,
        # then defs).  Clobber-only names are interned afterwards.
        intern = index.intern
        labels: List[str] = []
        block_start: List[int] = [0]
        instrs = []
        block_use: List[int] = []
        block_def: List[int] = []
        i_defs: List[int] = []
        i_uses: List[int] = []
        for label, block in fn.blocks.items():
            if budget is not None:
                budget.charge(1 + len(block.instrs), "instrs")
            labels.append(label)
            use_mask = 0
            def_mask = 0
            for instr in block.instrs:
                instrs.append(instr)
                um = 0
                for u in instr.uses:
                    um |= 1 << intern(u)
                use_mask |= um & ~def_mask
                dm = 0
                for d in instr.defs:
                    dm |= 1 << intern(d)
                def_mask |= dm
                i_uses.append(um)
                i_defs.append(dm)
            block_start.append(len(instrs))
            block_use.append(use_mask)
            block_def.append(def_mask)
        self.labels = labels
        self.block_id = {label: bid for bid, label in enumerate(labels)}
        self.block_start = block_start
        self.instrs = instrs
        self.block_use = block_use
        self.block_def = block_def

        # ---- pass 2: clobbers (interned here, after every use/def), the
        # derived per-instruction tables and per-block referenced masks
        # -- one walk instead of two.
        n = len(instrs)
        i_written = [0] * n
        i_ref = [0] * n
        i_exempt = [0] * n
        i_written_vids: List[Tuple[int, ...]] = [()] * n
        block_ref = [0] * len(labels)
        bid = 0
        ref_mask = 0
        for i, instr in enumerate(instrs):
            while i >= block_start[bid + 1]:
                block_ref[bid] = ref_mask
                ref_mask = 0
                bid += 1
            dm = i_defs[i]
            um = i_uses[i]
            cm = 0
            for v in instr.clobbers:
                cm |= 1 << intern(v)
            written = dm | cm
            i_written[i] = written
            i_ref[i] = written | um
            ref_mask |= written | um
            if instr.is_copy_like and instr.uses:
                i_exempt[i] = 1 << intern(instr.uses[0])
            if written:
                i_written_vids[i] = tuple(
                    intern(v) for v in instr.defs + instr.clobbers
                )
        if labels:
            block_ref[bid] = ref_mask
        self.i_defs = i_defs
        self.i_uses = i_uses
        self.i_written = i_written
        self.i_ref = i_ref
        self.i_exempt = i_exempt
        self.i_written_vids = i_written_vids
        self.block_ref = block_ref

        # ---- CFG adjacency in CSR form --------------------------------
        block_id = self.block_id
        succ_indptr: List[int] = [0]
        succ_ids: List[int] = []
        preds: List[List[int]] = [[] for _ in labels]
        for bid, label in enumerate(labels):
            for s in fn.blocks[label].succ_labels:
                sid = block_id[s]
                succ_ids.append(sid)
                preds[sid].append(bid)
            succ_indptr.append(len(succ_ids))
        pred_indptr: List[int] = [0]
        pred_ids: List[int] = []
        for plist in preds:
            pred_ids.extend(plist)
            pred_indptr.append(len(pred_ids))
        self.succ_indptr = succ_indptr
        self.succ_ids = succ_ids
        self.pred_indptr = pred_indptr
        self.pred_ids = pred_ids

        # ---- lazily-filled tables -------------------------------------
        self.live_in: List[int] = []
        self.live_out: List[int] = []
        self._var_ref_blocks: Optional[List[Tuple[int, ...]]] = None
        self._var_def_bmask: Optional[List[int]] = None
        self._block_digests: Optional[List[Optional[str]]] = None

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def retire(self) -> None:
        """Mark the snapshot stale (the function is about to be mutated).

        Per-instruction queries raise from then on (:meth:`check_current`);
        cheap and explicit, where version-sniffing would miss in-place
        instruction edits."""
        self._retired = True

    @property
    def retired(self) -> bool:
        return self._retired or getattr(self.fn, "cfg_version", None) != self.cfg_version

    def check_current(self, query: str) -> None:
        """Raise ``RuntimeError`` if the snapshot is retired: after the
        spill rewrite has mutated the function, the flat ranges describe
        dead instructions, and an answer computed from them would pair
        the new instructions with the old ones' liveness."""
        if self.retired:
            raise RuntimeError(
                f"{query} on a retired arena: the function was "
                "mutated after this snapshot was taken"
            )

    # ------------------------------------------------------------------
    # per-variable tables
    # ------------------------------------------------------------------
    def _build_var_blocks(self) -> None:
        # Block-id tuples are ordered by *label* (not block id), an order
        # that does not depend on how blocks were numbered.
        nvars = len(self.index)
        ref_sets: List[List[int]] = [[] for _ in range(nvars)]
        def_masks: List[int] = [0] * nvars
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        start = self.block_start
        i_ref = self.i_ref
        i_written = self.i_written
        for bid in order:
            ref_mask = 0
            wr_mask = 0
            for i in range(start[bid], start[bid + 1]):
                ref_mask |= i_ref[i]
                wr_mask |= i_written[i]
            while ref_mask:
                low = ref_mask & -ref_mask
                ref_sets[low.bit_length() - 1].append(bid)
                ref_mask ^= low
            bit = 1 << bid
            while wr_mask:
                low = wr_mask & -wr_mask
                def_masks[low.bit_length() - 1] |= bit
                wr_mask ^= low
        self._var_ref_blocks = [tuple(s) for s in ref_sets]
        self._var_def_bmask = def_masks

    def var_ref_blocks(self, vid: int) -> Tuple[int, ...]:
        """Block ids referencing *vid* (defs, uses or clobbers), ordered
        by block label."""
        if self._var_ref_blocks is None:
            self._build_var_blocks()
        if vid >= len(self._var_ref_blocks):
            return ()
        return self._var_ref_blocks[vid]

    def var_def_bmask(self, vid: int) -> int:
        """Bitset (over block ids) of blocks writing *vid* (defs or
        clobbers)."""
        if self._var_def_bmask is None:
            self._build_var_blocks()
        if vid >= len(self._var_def_bmask):
            return 0
        return self._var_def_bmask[vid]

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def compute_liveness(self) -> None:
        """Fill ``live_in``/``live_out`` (block-level bitsets, by block id).

        Solves the classic backward equations with a scalar bitset
        worklist over the CSR adjacency (every block queued once, first
        pops in RPO; a changed block re-queues its predecessors).
        """
        fn = self.fn
        block_id = self.block_id
        use_map = self.block_use
        def_map = self.block_def
        nblocks = len(self.labels)
        live_in = [0] * nblocks
        live_out = [0] * nblocks

        order = [block_id[label] for label in fn.rpo()]
        order_set = set(order)
        order += [bid for bid in range(nblocks) if bid not in order_set]
        worklist = list(reversed(order))
        in_worklist = set(worklist)
        succ_indptr = self.succ_indptr
        succ_ids = self.succ_ids
        pred_indptr = self.pred_indptr
        pred_ids = self.pred_ids

        budget = self.budget
        while worklist:
            if budget is not None:
                budget.charge(1, "liveness")
            bid = worklist.pop()
            in_worklist.discard(bid)
            new_out = 0
            for j in range(succ_indptr[bid], succ_indptr[bid + 1]):
                new_out |= live_in[succ_ids[j]]
            new_in = use_map[bid] | (new_out & ~def_map[bid])
            if new_out != live_out[bid] or new_in != live_in[bid]:
                live_out[bid] = new_out
                live_in[bid] = new_in
                for j in range(pred_indptr[bid], pred_indptr[bid + 1]):
                    pid = pred_ids[j]
                    if pid not in in_worklist:
                        worklist.append(pid)
                        in_worklist.add(pid)

        self.live_in = live_in
        self.live_out = live_out

    # ------------------------------------------------------------------
    # per-instruction liveness (one backward scan per block)
    # ------------------------------------------------------------------
    def scan_block(self, bid: int) -> Tuple[List[int], List[int]]:
        """(live-out, live-in) bitsets per instruction of block *bid*."""
        start = self.block_start[bid]
        end = self.block_start[bid + 1]
        live = self.live_out[bid]
        n = end - start
        outs = [0] * n
        ins = [0] * n
        i_defs = self.i_defs
        i_uses = self.i_uses
        for k in range(n - 1, -1, -1):
            i = start + k
            outs[k] = live
            live = (live & ~i_defs[i]) | i_uses[i]
            ins[k] = live
        return outs, ins

    # ------------------------------------------------------------------
    # per-block content digests (tile fingerprint ingredient)
    # ------------------------------------------------------------------
    def block_digest(self, bid: int) -> str:
        """Canonical sha256 of block *bid*'s identity and content.

        Covers the label, the ordered successor list, and -- per
        instruction, over the arena's flat index range -- the uid, the
        canonical text, and the clobber set (clobbers matter for
        interference but are absent from the printed form).  Two blocks
        with equal digests are interchangeable as phase-1 inputs; the
        per-tile memoization layer folds these into tile fingerprints.

        Raises ``RuntimeError`` on a retired arena: a digest of dead
        instructions could address a stale cache entry.
        """
        self.check_current("block_digest")
        digests = self._block_digests
        if digests is None:
            digests = self._block_digests = [None] * len(self.labels)
        cached = digests[bid]
        if cached is not None:
            return cached
        from hashlib import sha256

        from repro.ir.printer import format_instr

        block = self.fn.blocks[self.labels[bid]]
        h = sha256()
        h.update(block.label.encode())
        h.update(("->" + ",".join(block.succ_labels)).encode())
        for i in range(self.block_start[bid], self.block_start[bid + 1]):
            instr = self.instrs[i]
            h.update(f"\n{instr.uid}|{format_instr(instr)}".encode())
            if instr.clobbers:
                h.update(("!" + ",".join(instr.clobbers)).encode())
        digest = h.hexdigest()
        digests[bid] = digest
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FunctionArena {self.fn.name}: {len(self.labels)} blocks, "
            f"{len(self.instrs)} instrs, {len(self.index)} vars>"
        )


def build_arena(fn: Function, budget=None) -> FunctionArena:
    """Lower *fn* into a fresh arena with its own ``VarIndex``.

    *budget*, when given, is charged for every instruction lowered and
    every liveness worklist step (see :mod:`repro.core.budget`).
    """
    return FunctionArena(fn, VarIndex(), budget=budget)
