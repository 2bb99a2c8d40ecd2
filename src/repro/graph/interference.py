"""Interference (conflict) graphs.

Nodes are variables; an edge means the two variables cannot share a register
(they are simultaneously live at some point).  Construction follows Chaitin:
at every definition point the defined variable conflicts with everything live
after the instruction -- except that copy sources never conflict with their
destinations through the copy itself, which is what lets preferencing (the
paper's replacement for coalescing) put both in one register.

Internally the graph is **integer-backed**: every node gets a local id and
the adjacency of a node is a single Python-int bitmask over those ids, so
edge insertion, degree, and induced subgraphs are word-level operations.
The string-facing API (``nodes``/``neighbors``/``adjacency``/``edges``) is a
facade materialized from the masks -- hot callers use the id-level accessors
(``node_ids``/``id_masks``/``id_names``) instead.  Node
iteration order is insertion order, which construction keeps canonical
(never hash-salted); removed-then-re-added nodes go to the end, exactly like
the dict-of-sets representation this replaces.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.liveness import Liveness
from repro.ir.function import Function


class InterferenceGraph:
    """Undirected conflict graph over variable names.

    ``_ids`` maps name -> local id in insertion order; ``_names`` is the
    inverse; ``_masks`` maps id -> neighbour bitmask over ids.  Ids are
    *not* required to be dense: :func:`build_interference` reuses the
    function-wide ``VarIndex`` vids directly (no remapping), and
    :meth:`subgraph` keeps the parent's ids.  ``_next`` is the next fresh
    id handed to facade insertions, always above every live id.
    """

    __slots__ = ("_ids", "_names", "_masks", "_next",
                 "_version", "_str_adj", "_str_version",
                 "_nbr_lists", "_ranks", "_rank_version", "_degs",
                 "_rank_arr", "_rank_arr_version")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._names: Dict[int, str] = {}
        self._masks: Dict[int, int] = {}
        self._next = 0
        #: bumped on every mutation; invalidates the version-keyed memos
        #: (``adjacency``/``name_ranks``).  The neighbour-list and degree
        #: caches are *not* version-keyed: mutators keep them in sync
        #: incrementally (or drop them to None), so recolor loops that add
        #: a few temp nodes per round never pay a full mask re-decode.
        self._version = 0
        self._str_adj: Optional[Dict[str, Set[str]]] = None
        self._str_version = -1
        #: id -> neighbour ids; always consistent with ``_masks`` when not
        #: None (the incremental-maintenance invariant).
        self._nbr_lists: Optional[Dict[int, List[int]]] = None
        self._ranks: Optional[Tuple[Dict[int, int], List[int]]] = None
        self._rank_version = -1
        #: dense ``id -> rank`` list (index = id, ``-1`` for holes) --
        #: the array view of ``_ranks`` the coloring engine indexes in
        #: its per-edge loops.  Memoized with its own version stamp.
        self._rank_arr: Optional[List[int]] = None
        self._rank_arr_version = -1
        #: id -> degree; same invariant as ``_nbr_lists``.
        self._degs: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _intern(self, var: str) -> int:
        i = self._ids.get(var)
        if i is None:
            i = self._next
            self._next = i + 1
            self._ids[var] = i
            self._names[i] = var
            self._masks[i] = 0
            if self._nbr_lists is not None:
                self._nbr_lists[i] = []
            if self._degs is not None:
                self._degs[i] = 0
        return i

    def add_node(self, var: str) -> None:
        if var not in self._ids:
            self._version += 1
            self._intern(var)

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            return
        ia = self._intern(a)
        ib = self._intern(b)
        masks = self._masks
        if masks[ia] >> ib & 1:
            return  # already present: nothing changes, keep the memos
        self._version += 1
        masks[ia] |= 1 << ib
        masks[ib] |= 1 << ia
        lists = self._nbr_lists
        if lists is not None:
            insort(lists[ia], ib)
            insort(lists[ib], ia)
        degs = self._degs
        if degs is not None:
            degs[ia] += 1
            degs[ib] += 1

    def add_clique(self, vars_: Iterable[str]) -> None:
        # Bulk mask unions: O(k) word operations instead of O(k^2)
        # add_edge calls.  Callers routinely pass sets (boundary live
        # sets), so nodes not seen before are inserted in sorted order --
        # node order feeds downstream tie-breaks and must not depend on
        # hash salt.  Existing nodes keep their position, so the sort
        # covers only the (usually empty) set of new members.
        self._version += 1
        ids = self._ids
        members: Set[str] = set(vars_)
        new = [v for v in members if v not in ids]
        if new:
            new.sort()
            for v in new:
                self._intern(v)
        if len(members) < 2:
            return
        masks = self._masks
        lists = self._nbr_lists
        degs = self._degs
        mids = [ids[v] for v in members]
        clique = 0
        for i in mids:
            clique |= 1 << i
        for i in mids:
            delta = clique & ~(1 << i) & ~masks[i]
            if not delta:
                continue
            masks[i] |= delta
            if lists is None and degs is None:
                continue
            added = 0
            lst = lists[i] if lists is not None else None
            while delta:
                low = delta & -delta
                if lst is not None:
                    insort(lst, low.bit_length() - 1)
                added += 1
                delta ^= low
            if degs is not None:
                degs[i] += added

    def add_star(self, var: str, others: Iterable[str]) -> None:
        """Insert *var* conflicting with every name in *others* (*var*
        itself skipped) -- a bulk ``add_edge`` loop: one mask union for
        *var*, one bit OR per counterpart.  Unseen names are interned in
        iteration order, exactly as the equivalent ``add_edge`` sequence
        would, so node order (which feeds downstream tie-breaks) is
        unchanged."""
        self._version += 1
        i = self._intern(var)
        ids = self._ids
        masks = self._masks
        star = 0
        for o in others:
            oi = ids.get(o)
            if oi is None:
                oi = self._intern(o)
            star |= 1 << oi
        star &= ~(1 << i)
        new = star & ~masks[i]
        if not new:
            return
        masks[i] |= new
        vbit = 1 << i
        lists = self._nbr_lists
        degs = self._degs
        vlst = lists[i] if lists is not None else None
        added = 0
        while new:
            low = new & -new
            o = low.bit_length() - 1
            masks[o] |= vbit
            if lists is not None:
                insort(lists[o], i)
                insort(vlst, o)
            if degs is not None:
                degs[o] += 1
            added += 1
            new ^= low
        if degs is not None:
            degs[i] += added

    def add_conflicts_all(self, var: str) -> None:
        """Insert *var* (appended to node order if new) conflicting with
        every node already in the graph -- the phase-2 intruder insertion,
        in bulk: one mask union for *var*, one bit OR per existing node."""
        self._version += 1
        masks = self._masks
        i = self._intern(var)
        vbit = 1 << i
        star = 0
        for o in masks:
            star |= 1 << o
        star &= ~vbit
        new = star & ~masks[i]
        masks[i] |= star
        lists = self._nbr_lists
        degs = self._degs
        vlst = lists[i] if lists is not None else None
        added = 0
        while new:
            low = new & -new
            o = low.bit_length() - 1
            masks[o] |= vbit
            if lists is not None:
                insort(lists[o], i)
                insort(vlst, o)
            if degs is not None:
                degs[o] += 1
            added += 1
            new ^= low
        if degs is not None and added:
            degs[i] += added

    def remove_node(self, var: str) -> None:
        i = self._ids.pop(var, None)
        if i is None:
            return
        self._version += 1
        self._names.pop(i)
        masks = self._masks
        mask = masks.pop(i)
        clear = ~(1 << i)
        lists = self._nbr_lists
        degs = self._degs
        if lists is not None:
            lists.pop(i, None)
        if degs is not None:
            degs.pop(i, None)
        while mask:
            low = mask & -mask
            o = low.bit_length() - 1
            masks[o] &= clear
            if lists is not None:
                lists[o].remove(i)
            if degs is not None:
                degs[o] -= 1
            mask ^= low

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def nodes(self) -> List[str]:
        return list(self._ids)

    def __contains__(self, var: str) -> bool:
        return var in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def _neighbor_names(self, i: int) -> Set[str]:
        names = self._names
        out: Set[str] = set()
        add = out.add
        mask = self._masks[i]
        while mask:
            low = mask & -mask
            add(names[low.bit_length() - 1])
            mask ^= low
        return out

    def neighbors(self, var: str) -> Set[str]:
        i = self._ids.get(var)
        if i is None:
            return set()
        return self._neighbor_names(i)

    def degree(self, var: str) -> int:
        i = self._ids.get(var)
        return 0 if i is None else self._masks[i].bit_count()

    def edges(self) -> Iterator[Tuple[str, str]]:
        # Neighbour masks are decoded and sorted so the yield order
        # depends only on node insertion order, never on the hash salt.
        seen = set()
        for a, i in self._ids.items():
            for b in sorted(self._neighbor_names(i)):
                key = (a, b) if a <= b else (b, a)
                if key not in seen:
                    seen.add(key)
                    yield key

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._masks.values()) // 2

    def interferes(self, a: str, b: str) -> bool:
        ids = self._ids
        ia = ids.get(a)
        ib = ids.get(b)
        return (
            ia is not None and ib is not None
            and bool(self._masks[ia] >> ib & 1)
        )

    def clone(self) -> "InterferenceGraph":
        """Independent structural copy (same ids, same node order).

        Mutations on either copy never reach the other; the per-tile
        memoization layer clones a cached pristine graph before phase 2
        adds intruders/temporaries to it.  Memos are left cold -- they
        rebuild on demand.
        """
        out = InterferenceGraph()
        out._ids = dict(self._ids)
        out._names = dict(self._names)
        out._masks = dict(self._masks)
        out._next = self._next
        return out

    def subgraph(self, keep: Set[str]) -> "InterferenceGraph":
        """Induced subgraph on ``keep`` (nodes absent from the graph are
        ignored).  One mask AND per kept node; ids are preserved, and node
        order follows this graph's (canonical) insertion order."""
        out = InterferenceGraph()
        masks = self._masks
        o_ids = out._ids
        o_names = out._names
        o_masks = out._masks
        # ``keep`` is usually a freshly-built (hash-ordered) set, so it
        # must not drive the iteration.  Walking ``self._ids`` instead
        # inherits this graph's insertion order, which construction keeps
        # canonical -- the induced graph's node order (and everything
        # keyed off it downstream) is then canonical without a sort.
        keep_mask = 0
        kept: List[Tuple[str, int]] = []
        for var, i in self._ids.items():
            if var in keep:
                kept.append((var, i))
                keep_mask |= 1 << i
        for var, i in kept:
            o_ids[var] = i
            o_names[i] = var
            o_masks[i] = masks[i] & keep_mask
        out._next = self._next
        # Ids are preserved, so the parent's memos transfer: ranks restricted
        # to the kept subset order exactly like the subset's own sorted-name
        # positions (only kept ids are ever looked up), and neighbour lists
        # filter down instead of re-decoding masks bit by bit.  Computing
        # them *via the parent* memoizes on the parent, so the repeated
        # subgraphs of one recolor loop pay the sort/decode once.
        out._ranks = self.name_ranks()
        out._rank_version = 0
        out._rank_arr = self.name_rank_array()
        out._rank_arr_version = 0
        p_lists = self.neighbor_ids()
        out._nbr_lists = {
            i: [o for o in p_lists[i] if keep_mask >> o & 1]
            for _, i in kept
        }
        out._degs = {i: len(l) for i, l in out._nbr_lists.items()}
        return out

    # ------------------------------------------------------------------
    # id-level access (the flat cold path)
    # ------------------------------------------------------------------
    def node_ids(self) -> Dict[str, int]:
        """name -> local id, in node insertion order -- treat as read-only."""
        return self._ids

    def id_names(self) -> Dict[int, str]:
        """local id -> name -- treat as read-only."""
        return self._names

    def id_masks(self) -> Dict[int, int]:
        """local id -> neighbour bitmask -- treat as read-only."""
        return self._masks

    def neighbor_ids(self) -> Dict[int, List[int]]:
        """local id -> neighbour ids as a list, ascending -- treat as
        read-only.  Decoded from the masks once, then kept exactly in
        sync by the mutators: the coloring engine hits every neighbour of
        every node once per run, and the same graph is colored several
        times (recolor rounds, then phase 2) with a few temp-node
        insertions in between, so the decode is paid once per graph
        instead of once per round."""
        if self._nbr_lists is None:
            out: Dict[int, List[int]] = {}
            for i, mask in self._masks.items():
                lst: List[int] = []
                append = lst.append
                while mask:
                    low = mask & -mask
                    append(low.bit_length() - 1)
                    mask ^= low
                out[i] = lst
            self._nbr_lists = out
        return self._nbr_lists

    def degree_map(self) -> Dict[int, int]:
        """``id -> degree`` for every node -- treat as read-only.  Built
        once, then maintained incrementally by the mutators; the coloring
        engine copies it instead of re-counting mask bits per round."""
        if self._degs is None:
            if self._nbr_lists is not None:
                self._degs = {i: len(l) for i, l in self._nbr_lists.items()}
            else:
                self._degs = {
                    i: m.bit_count() for i, m in self._masks.items()
                }
        return self._degs

    def name_ranks(self) -> Tuple[Dict[int, int], List[int]]:
        """``(id -> rank, rank -> id)`` over all nodes sorted by name.
        Ranks restricted to any subset order exactly like the subset's own
        sorted-name positions (a strictly monotone map), so the coloring
        engine's heaps reuse these across recolor rounds and both phases
        instead of re-sorting per call.  Memoized until the next mutation."""
        if self._ranks is None or self._rank_version != self._version:
            by_rank = [self._ids[name] for name in sorted(self._ids)]
            rank = {i: r for r, i in enumerate(by_rank)}
            self._ranks = (rank, by_rank)
            self._rank_version = self._version
        return self._ranks

    def name_rank_array(self) -> List[int]:
        """``id -> rank`` as a dense list indexed by id (``-1`` in holes
        left by removed nodes; length ``_next``) -- treat as read-only.
        The coloring engine reads a rank per neighbour per decrement, so
        it wants list indexing, not a dict probe.  Like ``name_ranks``
        (whose dict this is built from) the memo survives until the next
        mutation and transfers through :meth:`subgraph` -- ids are
        preserved there, and only kept ids are ever looked up."""
        if self._rank_arr is None or self._rank_arr_version != self._version:
            rank, _ = self.name_ranks()
            arr = [-1] * self._next
            for i, r in rank.items():
                arr[i] = r
            self._rank_arr = arr
            self._rank_arr_version = self._version
        return self._rank_arr

    # ------------------------------------------------------------------
    # string facade
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[str, Set[str]]:
        """The adjacency as a name-keyed dict of neighbour-name sets,
        in node insertion order -- treat as read-only.  Materialized from
        the masks and memoized until the next mutation."""
        if self._str_adj is None or self._str_version != self._version:
            out: Dict[str, Set[str]] = {}
            for var, i in self._ids.items():
                out[var] = self._neighbor_names(i)
            self._str_adj = out
            self._str_version = self._version
        return self._str_adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InterferenceGraph |V|={len(self)} |E|={self.edge_count()}>"


def build_interference(
    fn: Function,
    liveness: Liveness,
    labels: Optional[Iterable[str]] = None,
    relevant: Optional[Set[str]] = None,
    budget=None,
) -> InterferenceGraph:
    """Chaitin-style conflict graph construction.

    Args:
        fn: the function.
        liveness: precomputed liveness for *fn*.
        labels: restrict construction to these blocks (a tile's
            ``blocks(t)``); defaults to the whole function.
        relevant: if given, only variables in this set become nodes; others
            are ignored entirely (the paper's tile graphs only represent
            variables referenced in the tile, see section 3).
        budget: optional :class:`~repro.core.budget.AllocationBudget`
            charged per visited block (instruction-weighted) and for the
            nodes/edges the finished graph carries.

    Every variable referenced in the visited blocks becomes a node even if
    it never conflicts.  At each definition the defined variables conflict
    with every relevant variable live after the instruction, with the
    classic copy exemption, and multiple definitions of one instruction
    conflict with each other.

    The construction runs over the arena behind ``liveness``: its
    precomputed per-instruction bitsets (``i_ref``, ``i_written``,
    ``i_exempt``, ``i_written_vids``) -- clobbered registers (calls) count
    as written, so they conflict with everything live across the
    instruction.  Raises ``RuntimeError`` if that arena is retired or
    lowers a different function than *fn*.
    """
    arena = liveness.arena
    arena.check_current("build_interference")
    if arena.fn is not fn:
        raise RuntimeError(
            "build_interference: liveness was computed for a different "
            "function"
        )
    if labels is None:
        labels = list(fn.blocks)

    index = liveness.index
    relevant_mask: Optional[int] = (
        None if relevant is None else index.mask_of(relevant)
    )

    node_mask = 0
    adj: Dict[int, int] = {}
    adj_get = adj.get
    block_id = arena.block_id
    block_start = arena.block_start
    i_ref = arena.i_ref
    i_written = arena.i_written
    i_exempt = arena.i_exempt
    i_written_vids = arena.i_written_vids
    for label in labels:
        bid = block_id[label]
        if budget is not None:
            budget.charge(1 + block_start[bid + 1] - block_start[bid], "graph")
        live_out_per_instr = liveness.instr_live_out_bits(label)
        start = block_start[bid]
        for k in range(block_start[bid + 1] - start):
            i = start + k
            referenced = i_ref[i]
            if relevant_mask is not None:
                referenced &= relevant_mask
            node_mask |= referenced

            sibling_mask = i_written[i]
            if not sibling_mask:
                continue
            targets = live_out_per_instr[k] & ~i_exempt[i]
            if relevant_mask is not None:
                targets &= relevant_mask
                sibling_mask &= relevant_mask
            for vid in i_written_vids[i]:
                vbit = 1 << vid
                if relevant_mask is not None and not (vbit & relevant_mask):
                    continue
                new = (targets | sibling_mask) & ~vbit
                if new:
                    adj[vid] = adj_get(vid, 0) | new

    # Live-after edges were recorded def-side only; mirror them so the
    # adjacency is symmetric (sibling cliques are already symmetric).  The
    # bit loops are inlined -- this is the hottest mask-decoding site and
    # generator resumption costs more than the loop body.
    for vid in list(adj):
        vbit = 1 << vid
        mask = adj[vid]
        while mask:
            low = mask & -mask
            oid = low.bit_length() - 1
            adj[oid] = adj_get(oid, 0) | vbit
            mask ^= low

    # Lower the vid-space masks into the graph under *dense* local ids:
    # node order is the def-side first-touch order of ``adj`` followed by
    # edge-free referenced variables in vid order -- the same canonical
    # order the dict-of-sets construction produced.  The one-time remap
    # keeps every adjacency mask within a couple of machine words (vids
    # span the whole function, local ids only this graph), which is what
    # makes the coloring engine's bit loops word-cheap.
    graph = InterferenceGraph()
    gids = graph._ids
    gnames = graph._names
    gmasks = graph._masks
    name_of = index.name_of
    local: Dict[int, int] = {}
    vid_order: List[int] = list(adj)
    for vid in vid_order:
        local[vid] = len(local)
    while node_mask:
        low = node_mask & -node_mask
        vid = low.bit_length() - 1
        if vid not in local:
            local[vid] = len(local)
            vid_order.append(vid)
        node_mask ^= low
    local_get = local.__getitem__
    nbr_lists: Dict[int, List[int]] = {}
    for vid in vid_order:
        name = name_of(vid)
        i = local[vid]
        gids[name] = i
        gnames[i] = name
        mask = adj.get(vid, 0)
        new_mask = 0
        # This decode already touches every neighbour bit -- collect the
        # local ids as it goes so the graph is born with its neighbour
        # list / degree caches populated (ascending, same content the
        # lazy ``neighbor_ids`` decode would produce) instead of paying
        # a second bit-by-bit pass on first coloring.
        row: List[int] = []
        append = row.append
        while mask:
            low = mask & -mask
            o = local_get(low.bit_length() - 1)
            new_mask |= 1 << o
            append(o)
            mask ^= low
        row.sort()
        gmasks[i] = new_mask
        nbr_lists[i] = row
    graph._nbr_lists = nbr_lists
    graph._degs = {i: len(l) for i, l in nbr_lists.items()}
    graph._next = len(local)
    if budget is not None:
        # Bulk node/edge accounting: a high-degree clique burns fuel
        # proportional to the edges it actually materialized, even when
        # it came from few blocks.
        budget.charge(
            len(local) + sum(len(l) for l in nbr_lists.values()), "graph"
        )
    return graph
