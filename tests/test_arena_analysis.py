"""Differential tests for the flat-arena analysis core.

Every analysis lowers the function once into a :class:`FunctionArena`
(flat instruction/def/use tables over the interned ``VarIndex``, CSR
block adjacency) and runs liveness as a word-level bitset worklist over
it; ``build_interference`` then consumes the arena's per-instruction
tables directly.  This is the only analysis path (``compute_liveness``
is ``liveness_from_arena(build_arena(fn))``).  The string-set oracle in
:mod:`repro.analysis.reference` is the seed algorithm, preserved
verbatim as the differential reference -- every result below must match
it exactly, not approximately.

Coverage: hypothesis fuzzing over structured random programs, plus the
handcrafted edge cases the fuzzer reaches rarely -- irreducible
(multiple-entry) loops, branch-only pass-through blocks, and blocks
unreachable from the entry.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.liveness import compute_liveness, liveness_from_arena
from repro.analysis.reference import reference_interference, reference_liveness
from repro.graph.interference import build_interference
from repro.ir.builder import FunctionBuilder
from repro.perf.arena import build_arena
from repro.workloads.generators import random_program

SEEDS = st.integers(min_value=0, max_value=10_000)
COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _arena_liveness(fn):
    return liveness_from_arena(build_arena(fn))


def _assert_liveness_matches(fn):
    fast = _arena_liveness(fn)
    ref = reference_liveness(fn)
    assert fast.live_in == ref.live_in
    assert fast.live_out == ref.live_out
    frozenset_of = fast.index.frozenset_of
    for label in fn.blocks:
        assert [
            frozenset_of(bits) for bits in fast.instr_live_out_bits(label)
        ] == ref.instr_live_out(label)
        assert [
            frozenset_of(bits) for bits in fast.instr_live_in_bits(label)
        ] == ref.instr_live_in(label)


def _assert_interference_matches(fn, labels=None, relevant=None):
    liveness = _arena_liveness(fn)
    fast = build_interference(fn, liveness, labels=labels, relevant=relevant)
    ref = reference_interference(
        fn, reference_liveness(fn), labels=labels, relevant=relevant
    )
    assert sorted(fast.nodes()) == sorted(ref.nodes())
    assert sorted(fast.edges()) == sorted(ref.edges())
    # The incremental neighbor/degree caches must agree with the masks
    # they summarize (the coloring engine trusts them blindly).
    ids = fast.node_ids()
    nbrs = fast.neighbor_ids()
    degs = fast.degree_map()
    for name in fast.nodes():
        i = ids[name]
        assert degs[i] == len(nbrs[i])
        assert sorted(fast.neighbors(name)) == sorted(
            ref.neighbors(name)
        )


# ----------------------------------------------------------------------
# fuzzed equivalence
# ----------------------------------------------------------------------

@given(seed=SEEDS)
@COMMON
def test_arena_liveness_equals_oracle(seed):
    """Arena bitset sweeps produce exactly the oracle's frozensets."""
    _assert_liveness_matches(random_program(seed))


@given(seed=SEEDS)
@COMMON
def test_arena_interference_equals_oracle(seed):
    _assert_interference_matches(random_program(seed))


@given(seed=SEEDS)
@COMMON
def test_arena_interference_equals_oracle_restricted(seed):
    """Tile-style restricted construction (subset of blocks + relevant
    filter) through the arena fast path."""
    fn = random_program(seed)
    labels = sorted(fn.blocks)[: max(1, len(fn.blocks) // 2)]
    relevant = set()
    for label in labels:
        relevant |= fn.blocks[label].variables()
    relevant = set(sorted(relevant)[: max(1, len(relevant) // 2)])
    _assert_interference_matches(fn, labels=labels, relevant=relevant)


# ----------------------------------------------------------------------
# handcrafted edge cases
# ----------------------------------------------------------------------

def _irreducible_fn():
    """Two-entry cycle: entry branches into the middle of a ping/pong
    pair, so neither loop block dominates the other and the worklist
    must iterate the cycle to a fixed point from both sides."""
    b = FunctionBuilder("irred", params=["n", "w"])
    b.block("entry")
    b.const("one", 1)
    b.const("acc", 0)
    b.copy("i", "n")
    b.cbr("w", "ping", "pong")
    b.block("ping")
    b.add("acc", "acc", "one")
    b.sub("i", "i", "one")
    b.cbr("i", "pong", "out")
    b.block("pong")
    b.add("acc", "acc", "acc")
    b.sub("i", "i", "one")
    b.cbr("i", "ping", "out")
    b.block("out")
    b.ret("acc")
    return b.finish()


def _empty_block_fn():
    """Pass-through blocks holding only a branch: no defs, no uses --
    their live-in must equal their live-out, and the arena's per-block
    instruction ranges are empty slices."""
    b = FunctionBuilder("empties", params=["n"])
    b.block("entry")
    b.const("one", 1)
    b.add("x", "n", "one")
    b.cbr("x", "hop_a", "hop_b")
    b.block("hop_a")        # branch-only
    b.br("join")
    b.block("hop_b")        # branch-only
    b.br("mid")
    b.block("mid")          # branch-only chain
    b.br("join")
    b.block("join")
    b.add("y", "x", "n")
    b.ret("y")
    return b.finish()


def _irreducible_empty_fn():
    """Irreducible cycle whose members include a branch-only block: the
    combination the issue calls out (empty blocks inside a
    multiple-entry region)."""
    b = FunctionBuilder("irred_empty", params=["n", "w"])
    b.block("entry")
    b.const("one", 1)
    b.copy("i", "n")
    b.cbr("w", "hop", "work")
    b.block("hop")          # branch-only member of the cycle
    b.br("work")
    b.block("work")
    b.sub("i", "i", "one")
    b.cbr("i", "hop", "out")
    b.block("out")
    b.ret("i")
    return b.finish()


def test_irreducible_loop_matches_oracle():
    fn = _irreducible_fn()
    _assert_liveness_matches(fn)
    _assert_interference_matches(fn)


def test_empty_blocks_match_oracle():
    fn = _empty_block_fn()
    _assert_liveness_matches(fn)
    _assert_interference_matches(fn)
    # Branch-only blocks carry liveness straight through.
    lv = _arena_liveness(fn)
    for label in ("hop_a", "hop_b", "mid"):
        assert lv.live_in[label] == lv.live_out[label]


def test_irreducible_with_empty_member_matches_oracle():
    fn = _irreducible_empty_fn()
    _assert_liveness_matches(fn)
    _assert_interference_matches(fn)


def test_restricted_to_empty_blocks_only():
    """A tile made only of branch-only blocks: the graph still gets one
    node per relevant variable (referenced-in-tile set is empty, so the
    node set comes purely from the relevant filter's live coverage)."""
    fn = _empty_block_fn()
    _assert_interference_matches(
        fn, labels=["hop_a", "hop_b", "mid"], relevant={"x", "n"}
    )


# ----------------------------------------------------------------------
# differential: arena-indexed temp-node insertion vs the object walk
# ----------------------------------------------------------------------

def _shadow_graph(graph):
    """Name-level clone: same nodes and edges, fresh ids.  The object
    walk operates purely on names, so a clone with remapped ids is a
    valid substrate for the shadow run."""
    from repro.graph.interference import InterferenceGraph

    g = InterferenceGraph()
    for node in graph.nodes():
        g.add_node(node)
    for a, b in graph.edges():
        g.add_edge(a, b)
    return g


def _edge_sets(graph):
    return {n: sorted(graph.neighbors(n)) for n in graph.nodes()}


def _allocate_with_temp_node_differential(fn, registers):
    """Run the hierarchical allocator with ``_add_temp_nodes`` replaced
    by a shim that executes BOTH walks -- the arena-indexed one on the
    real graph, the frozen object walk of ``tests/_temp_nodes_oracle.py``
    (over the string-set reference liveness) on a shadow clone -- and
    asserts they add the same temps with identical edge sets and leave
    the same per-uid peer index behind.  Returns how many calls actually
    created temps."""
    from repro.core import HierarchicalAllocator, HierarchicalConfig
    from repro.core import tilecolor
    from repro.machine.target import Machine
    from repro.pipeline import prepare
    from tests._temp_nodes_oracle import oracle_add_temp_nodes

    real = tilecolor._add_temp_nodes
    productive_calls = [0]
    oracle_liveness = {}

    def differential(ctx, own_labels, graph, new_vars, all_spilled,
                     temps_by_uid):
        shadow = _shadow_graph(graph)
        shadow_uid = {
            uid: (list(u), list(d)) for uid, (u, d) in temps_by_uid.items()
        }
        added = real(
            ctx, own_labels, graph, new_vars, all_spilled, temps_by_uid
        )
        ref = oracle_liveness.get(id(ctx.fn))
        if ref is None:
            ref = oracle_liveness[id(ctx.fn)] = reference_liveness(ctx.fn)
        shadow_added = oracle_add_temp_nodes(
            ctx, ref, own_labels, shadow, new_vars, all_spilled, shadow_uid,
        )
        assert shadow_added == added
        assert sorted(shadow.nodes()) == sorted(graph.nodes())
        assert _edge_sets(shadow) == _edge_sets(graph)
        assert shadow_uid == temps_by_uid
        if added:
            productive_calls[0] += 1
        return added

    tilecolor._add_temp_nodes = differential
    try:
        outcome = HierarchicalAllocator(HierarchicalConfig()).allocate(
            prepare(fn), Machine.simple(registers)
        )
    finally:
        tilecolor._add_temp_nodes = real
    return outcome, productive_calls[0]


@given(seed=SEEDS)
@COMMON
def test_arena_temp_nodes_match_object_walk(seed):
    """Node-for-node: for every ``_add_temp_nodes`` call during a real
    allocation, the arena-indexed path and the per-instruction object
    walk produce the same temp nodes, the same conflict edge sets, and
    the same peer index."""
    fn = random_program(seed)
    _allocate_with_temp_node_differential(fn, registers=3)


def test_arena_temp_node_differential_is_exercised():
    """The differential above is only as strong as its coverage: under
    register pressure the shim must actually see productive calls (temps
    created through both paths)."""
    productive = 0
    for seed in range(20):
        _, calls = _allocate_with_temp_node_differential(
            random_program(seed), registers=2
        )
        productive += calls
    assert productive > 0


# ----------------------------------------------------------------------
# a retired arena answers no per-instruction query
# ----------------------------------------------------------------------

def test_retired_arena_refuses_per_instruction_queries():
    """After allocation the spill rewrite has mutated the function and
    retired its arena: per-instruction liveness (memoized or not) and
    interference construction must raise rather than pair the rewritten
    instructions with the pre-rewrite liveness."""
    from repro.core import HierarchicalAllocator
    from repro.machine.target import Machine
    from repro.pipeline import prepare

    allocator = HierarchicalAllocator()
    allocator.allocate(prepare(random_program(3)), Machine.simple(2))
    ctx = allocator.last_context
    assert ctx.arena.retired
    label = next(iter(ctx.liveness.live_in))
    with pytest.raises(RuntimeError):
        ctx.liveness.instr_live_out_bits(label)
    with pytest.raises(RuntimeError):
        ctx.liveness.instr_live_in_bits(label)
    with pytest.raises(RuntimeError):
        build_interference(ctx.fn, ctx.liveness)


def test_build_interference_refuses_liveness_of_another_function():
    fn = random_program(5)
    other = fn.clone()
    with pytest.raises(RuntimeError):
        build_interference(other, compute_liveness(fn))
