"""Seeded input generators for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same inputs, in the same order, in any process.  Generators come
from ``repro`` itself (``synthetic_module``, ``random_workload``,
``sequential_loops``, ``edit_one_block``); the program under test only ever
receives the generated inputs.

Quality counts (``dyn_spill_refs``, ``dyn_moves``, ``code_instrs``) are
exact, but across seeds they differ with the input, by up to 140% between
200-function modules (measured).  No bound could hold such a spread, so
each workload also carries a fixed *anchor* part that the seed does not
change, and the quality counts are taken over it.  Past the anchors, the
timings too moved with the seed's inputs (see :data:`POPULATION_MODULES`
and :func:`module_passes`); there the workloads draw from fixed
populations, and the seed sets which functions run, in what order and
pass.
"""

from __future__ import annotations

import random
import signal
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Seed of the anchor inputs (see the module docstring).
ANCHOR_SEED = 0

#: Block-count strata of ``large_fn``, 50 blocks wide: the seed chooses
#: which functions, the strata fix how big they are, so that percentiles
#: compare across seeds.
STRATA = tuple((lo, lo + 50 + (lo == 400)) for lo in range(150, 450, 50))

#: ``random_workload`` parameters of ``large_fn`` draws.
LARGE_PARAMS = dict(max_blocks=800, max_vars=48, max_depth=7, break_prob=0.04)


@dataclass(frozen=True)
class Size:
    """How much input one run gets.  ``full`` is the benchmark; ``tiny``
    exists for the benchmark's own tests."""

    module: int            # functions per generated module
    probes: int            # fresh-process set-ups per run (setup_s median)
    seqloops: Tuple[int, ...]
    large_anchors: int     # seed-0 large_fn functions
    large_seeded: int      # large_fn functions drawn from the seed
    digest_requests: int   # service_mix requests in the fixed prefix
    quality_anchors: int   # service_mix anchor functions in quality counts
    stream_rate: int       # service_mix items generated per run second
    large_calls: int       # least large_fn calls, for ten beyond p90


SIZES: Dict[str, Size] = {
    "full": Size(200, 5, (100, 200), 12, 6, 200, 128, 150, 100),
    "tiny": Size(12, 1, (10,), 6, 0, 16, 4, 110, 0),
}


# ----------------------------------------------------------------------
# runaway inputs
# ----------------------------------------------------------------------
#: A few random programs square values in loops until they hold thousands
#: of digits.  ``synthetic_module(200, 5004)`` function ``095_m95`` takes
#: 359 steps but 30 s per simulation, 64 s through the engine, which
#: simulates twice.  ``synthetic_module(200, 8005)`` function ``023_m23``
#: returns a 16381-bit value, and ``repro serve`` answers 500 because the
#: value has more digits than Python converts to text by default.  No
#: machine word holds such values, so generated functions whose unallocated
#: program returns or stores one are left out; the report lists them as
#: ``excluded``.
WORD_BITS = 64

#: CPU seconds the check may simulate before it gives up on an input (and
#: leaves it out); normal inputs take well under 50 ms.
SIMULATE_CPU_S = 1.0

#: Step limit of the same check (the simulator's own default).
SIMULATE_MAX_STEPS = 2_000_000


class _Runaway(Exception):
    pass


def _interrupt(signum, frame):
    raise _Runaway


def fits_a_word(workload, max_steps: int = SIMULATE_MAX_STEPS) -> bool:
    """Whether the unallocated program finishes within *max_steps* (and
    :data:`SIMULATE_CPU_S` of CPU time) with every value it returns or
    leaves in its arrays inside a signed :data:`WORD_BITS`-bit word."""
    from repro.machine.simulator import SimulationError, simulate

    previous = signal.signal(signal.SIGPROF, _interrupt)
    signal.setitimer(signal.ITIMER_PROF, SIMULATE_CPU_S)
    try:
        result = simulate(workload.fn, args=workload.args,
                          arrays=workload.arrays, max_steps=max_steps)
    except (_Runaway, SimulationError):
        return False
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    values = list(result.returned)
    for contents in result.arrays.values():
        values.extend(contents.values())
    return all(
        not isinstance(v, int) or v.bit_length() < WORD_BITS for v in values
    )


# ----------------------------------------------------------------------
# module_cold
# ----------------------------------------------------------------------
def module_pass(seed: int, index: int, size: int,
                excluded: Optional[List[str]] = None) -> List:
    """Module *index* of *seed*: module 0 is the anchor module (the same
    for every seed), every other a module of its own drawn from *seed*.
    Runaway functions (see :func:`fits_a_word`) are left out and their
    names added to *excluded*."""
    module_seed = ANCHOR_SEED if index == 0 else 1 + seed * 1000 + index
    return _module(module_seed, size, excluded)


#: ``module_cold`` deals the random functions of this many population
#: modules at a time into passes, in a size-stratified order ...
GROUP_MODULES = 8

#: ... this many passes per module.  The host's speed is probed between
#: passes and moves within one: with one pass per 200-function module
#: (about 1.2 s), the host-adjusted time sums of the passes of one run
#: still spread 15%.
PASSES_PER_MODULE = 2


def module_passes(seed: int, size: int,
                  excluded: Optional[List[str]] = None) -> Iterator[List]:
    """The modules of ``module_cold``'s passes, without end.

    Pass 0 is the anchor module.  After it, each group of
    :data:`GROUP_MODULES` population modules (module seeds
    :data:`POPULATION_SEED`, +1, ...; the same for every seed) is dealt
    into :data:`PASSES_PER_MODULE` passes per module: each pass gets the
    functions the group's modules share (the kernels, once) and an equal
    share of the group's random functions in the seed's order of
    :func:`_stratified`.  Every pass thus holds about as many functions of
    each size as the group, and runs of different seeds allocate nearly
    the same functions in different passes and orders.  With modules of
    the seed's own, the median engine time per function moved by up to 13%
    from seed to seed (see :data:`POPULATION_MODULES`).
    """
    from collections import Counter

    from repro.ir.printer import format_function

    yield module_pass(seed, 0, size, excluded)
    rng = random.Random(-1 - seed)
    first = POPULATION_SEED
    while True:
        modules = [_module(first + j, size, excluded)
                   for j in range(GROUP_MODULES)]
        first += GROUP_MODULES
        texts = {id(w): format_function(w.fn) for m in modules for w in m}
        counts = Counter(texts.values())
        shared = [w for w in modules[0] if counts[texts[id(w)]] > 1]
        order = _stratified(
            [w for m in modules for w in m if counts[texts[id(w)]] == 1], rng)
        count = GROUP_MODULES * PASSES_PER_MODULE
        for j in range(count):
            yield shared + order[j * len(order) // count:
                                 (j + 1) * len(order) // count]


def _module(module_seed: int, size: int,
            excluded: Optional[List[str]] = None) -> List:
    from repro.batch.module import synthetic_module

    kept = []
    for workload in synthetic_module(size, seed=module_seed):
        if fits_a_word(workload):
            kept.append(workload)
        elif excluded is not None:
            excluded.append(f"{module_seed}:{workload.label()}")
    return kept


def warmup_functions(count: int = 4) -> List:
    """Small functions unrelated to any pass, for warming up workers."""
    from repro.workloads.generators import random_workload

    return [random_workload(7_000_000 + i, max_blocks=12) for i in range(count)]


# ----------------------------------------------------------------------
# large_fn
# ----------------------------------------------------------------------
def _draws(draw_seed: int):
    """``(stratum, workload)`` for each draw that lands in a stratum."""
    from repro.workloads.generators import random_workload

    rng = random.Random(draw_seed)
    while True:
        workload = random_workload(rng.randrange(1 << 30), **LARGE_PARAMS)
        blocks = len(workload.fn.blocks)
        for stratum, (lo, hi) in enumerate(STRATA):
            if lo <= blocks < hi:
                yield stratum, workload


def _round_robin(draw_seed: int) -> Iterator:
    """Draws of *draw_seed*, one per stratum in turn, so every six
    functions span the strata whatever the seed."""
    waiting: List[List] = [[] for _ in STRATA]
    draws = _draws(draw_seed)
    stratum = 0
    while True:
        while not waiting[stratum]:
            got, workload = next(draws)
            if len(waiting[got]) < 2:   # bound what waits for its turn
                waiting[got].append(workload)
        workload = waiting[stratum].pop(0)
        if fits_a_word(workload):
            yield workload
            stratum = (stratum + 1) % len(STRATA)


def first_large():
    """The first function of every ``large_draw`` (the set-up's warm-up),
    without drawing the rest."""
    return next(_round_robin(ANCHOR_SEED))


def large_draw(seed: int, size: Size) -> Tuple[List, int]:
    """``(functions, anchors)``: the ``large_fn`` input, allocated in turn.

    The first ``anchors`` functions do not depend on the seed: seed-0
    draws, two per stratum, then the ``sequential_loops`` kernels.  They
    carry the quality counts and most of the timed samples, which keeps
    percentiles steady across seeds.  Then come ``size.large_seeded``
    draws of the seed, one per stratum.
    """
    from repro.pipeline import Workload
    from repro.workloads.kernels import sequential_loops

    anchor_draws = _round_robin(ANCHOR_SEED)
    anchors = [next(anchor_draws) for _ in range(size.large_anchors)]
    anchors += [
        Workload(
            sequential_loops(count), {"n": 3},
            {"A": [(i * 5) % 11 - 5 for i in range(8)]},
            name=f"seqloops{count}",
        )
        for count in size.seqloops
    ]
    seeded = _round_robin(1 + seed)
    functions = anchors + [next(seeded) for _ in range(size.large_seeded)]
    return functions, len(anchors)


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
#: Items of each request kind in every block of 20 consecutive items of
#: the stream (the order within a block is drawn from the seed).  Exact
#: shares keep the latency quantiles steady: the share of fast repeats
#: moves the median of all requests.
NEW, PAIR, REPEAT, EDIT = "new", "pair", "repeat", "edit"
MIX = ((NEW, 9), (PAIR, 1), (REPEAT, 6), (EDIT, 4))

#: A repeat or an edit refers to a function sent at least this many
#: requests earlier, so that with two connections it has been answered.
LAG = 8

#: Repeats choose among this many most recent distinct functions, which
#: keeps every repeat inside the service's 1024-entry result cache.
REPEAT_WINDOW = 400

#: After the anchor module, new functions come from a fixed population of
#: this many modules, in an order drawn from the seed and stratified by
#: size (see :func:`_stratified`).  Drawn from modules of their own
#: instead, the median size of the new functions of a run moved from 50
#: to 65 instructions over six seeds, and the request latencies' medians
#: with it: 40% of these functions have 10-30 instructions, the rest
#: spread thinly up to 300, so the median sits where few functions are.
POPULATION_MODULES = 8

#: Size strata of the population order.
POPULATION_STRATA = 10

#: Module seeds of the population; the seeded modules of ``module_pass``
#: stay below it for any seed under 999.
POPULATION_SEED = 1_000_000


@dataclass(frozen=True)
class Item:
    """One request of the service stream.  ``pair`` items go out on both
    connections at once, so the service coalesces them."""

    index: int
    kind: str
    name: str
    text: str
    workload: object        # the unallocated function with its inputs
    anchor: bool            # a new function of the anchor module

    def spec(self) -> Dict[str, object]:
        workload = self.workload
        return {
            "name": self.name,
            "text": self.text,
            "args": dict(workload.args),
            "arrays": {k: list(v) for k, v in workload.arrays.items()},
        }


def _new_functions(seed: int, size: int, excluded: List[str]):
    """Distinct new functions: the anchor module first, then the population
    (see :data:`POPULATION_MODULES`) in the seed's order, then modules of
    the seed's own; a function whose text was already produced (a kernel)
    is skipped."""
    from repro.ir.printer import format_function

    seen = set()

    def fresh(workloads, anchor: bool):
        for workload in workloads:
            text = format_function(workload.fn)
            if text not in seen:
                seen.add(text)
                yield workload, text, anchor

    yield from fresh(module_pass(seed, 0, size, excluded), True)
    population = [
        workload for k in range(POPULATION_MODULES)
        for workload in _module(POPULATION_SEED + k, size, excluded)
    ]
    yield from fresh(_stratified(population, random.Random(-1 - seed)),
                     False)
    index = 1
    while True:
        yield from fresh(module_pass(seed, index, size, excluded), False)
        index += 1


def _stratified(workloads: List, rng: random.Random) -> List:
    """*workloads* in a random order in which every prefix holds about as
    many functions of each size stratum as the whole: strata of equal
    count by instruction count, and rounds that take one function from
    each stratum, strata in random order."""
    by_size = sorted(workloads,
                     key=lambda w: sum(len(block.instrs) for block in w.fn))
    width = -(-len(by_size) // POPULATION_STRATA)
    strata = [by_size[i:i + width] for i in range(0, len(by_size), width)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    while any(strata):
        live = [stratum for stratum in strata if stratum]
        rng.shuffle(live)
        order.extend(stratum.pop() for stratum in live)
    return order


def service_stream(seed: int, count: int, module_size: int = 200,
                   excluded: Optional[List[str]] = None) -> List[Item]:
    """*count* requests in the shares of :data:`MIX`: new functions (some
    sent as coalescing pairs), repeats of a function sent earlier, and
    earlier functions with ``edit_one_block`` applied (applied again on
    each later edit of the same base, so every edit is new content)."""
    rng = random.Random(seed)
    fresh = _new_functions(seed, module_size,
                           excluded if excluded is not None else [])
    items: List[Item] = []
    sent: List[Item] = []            # new and edited functions, in order
    bases: List[Item] = []           # new functions, in order
    edits: Dict[int, int] = {}       # base index -> edits applied so far
    block = [kind for kind, count in MIX for _ in range(count)]
    kinds: List[str] = []
    pool_end = 0                     # sent[:pool_end] lie LAG items back
    base_end = 0                     # likewise for bases
    for index in range(count):
        while pool_end < len(sent) and sent[pool_end].index <= index - LAG:
            pool_end += 1
        while base_end < len(bases) and bases[base_end].index <= index - LAG:
            base_end += 1
        if not kinds:
            kinds = rng.sample(block, len(block))
        kind = kinds.pop()
        if kind in (REPEAT, EDIT) and not base_end:
            kind = NEW
        if kind in (NEW, PAIR):
            workload, text, anchor = next(fresh)
            item = Item(index, kind, workload.label(), text, workload, anchor)
            sent.append(item)
            bases.append(item)
        elif kind == REPEAT:
            window = sent[max(0, pool_end - REPEAT_WINDOW):pool_end]
            original = rng.choice(window)
            item = Item(index, kind, original.name, original.text,
                        original.workload, False)
        else:
            item = _edit(index, bases[rng.randrange(base_end)], edits)
            if item is None:    # the edit made the program run away
                workload, text, anchor = next(fresh)
                item = Item(index, NEW, workload.label(), text, workload,
                            anchor)
                bases.append(item)
            sent.append(item)
        items.append(item)
    return items


#: An edit bumps a constant, which can be a loop bound; an edited program
#: must still finish in this many simulated steps (and fit a word), or a
#: different request is sent instead, so that no request fails.
EDIT_MAX_STEPS = 20_000


def _edit(index: int, base: Item, edits: Dict[int, int]):
    """``base`` with ``edit_one_block`` applied once more than last time,
    or ``None`` when the edited program runs away."""
    from repro.determinism import edit_one_block
    from repro.ir.printer import format_function
    from repro.pipeline import Workload

    times = edits.get(base.index, 0) + 1
    edits[base.index] = times
    fn = base.workload.fn.clone()
    for _ in range(times):
        edit_one_block(fn)
    workload = Workload(
        fn, dict(base.workload.args),
        {k: list(v) for k, v in base.workload.arrays.items()},
        name=f"{base.name}~e{times}",
    )
    if not fits_a_word(workload, EDIT_MAX_STEPS):
        return None
    return Item(index, EDIT, workload.label(), format_function(fn), workload,
                False)


def item_key(item: Item) -> str:
    """Identity of an item's function and inputs, for output checks."""
    return item.text + repr(sorted(item.workload.args.items()))
