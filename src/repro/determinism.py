"""Cross-process reproducibility fingerprints for the allocation pipeline.

The allocator promises bit-identical output regardless of Python's
per-process string-hash salt (``PYTHONHASHSEED``), the number of batch
pool workers, or the platform.  This module is the proof harness:

* :func:`allocation_fingerprint` compiles one workload end-to-end and
  condenses everything observable -- the allocated program text, the set
  of spilled variables, and the simulator's dynamic cost counters -- into
  a small JSON-friendly dict;
* the ``fingerprint`` CLI command prints those dicts for a list of
  workloads, so a *fresh interpreter* can be asked for its view;
* the ``check`` CLI command re-runs ``fingerprint`` in subprocesses under
  several distinct ``PYTHONHASHSEED`` values and fails loudly on any
  divergence;
* the ``--incremental`` flag extends both commands with the memoization
  proof: allocate each workload with a tile store attached, apply a
  deterministic single-block edit, re-allocate warm (clean subtrees come
  from the store) and compare bit-for-bit against a fresh full
  allocation of the edited function -- with the per-tile reuse counters
  joining the fingerprint, so a combination that silently recomputed
  everything (or reused a stale tile) fails the check.

``tests/determinism/``, ``benchmarks/bench_determinism.py`` and the CI
determinism gate all drive the same code paths, so "deterministic" means
one thing everywhere.

Tile ids and instruction uids come from process-global counters, but the
allocator renumbers both on its private clone before any derived name is
minted (see ``HierarchicalAllocator.allocate``), so fingerprints -- and
the per-tile cache keys the incremental mode exercises -- are pure
functions of (text, config, machine), not of process history.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.core.budget import BudgetLimits
from repro.ir.function import Function
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.workloads.generators import random_program
from repro.workloads.kernels import sequential_loops

#: Hash seeds the ``check`` command uses by default -- three distinct
#: salts (0 disables randomization; the others are arbitrary but fixed).
DEFAULT_HASH_SEEDS: Tuple[str, ...] = ("0", "1", "12345")

_ARRAYS = {
    "A": [3, -1, 4, 1, -5, 9, 2, -6],
    "B": [0] * 8,
    "C": [2, 7, 1, 8, 2, 8, 1, 8],
}
_ARGS = {"n": 6}


def _bench_workloads() -> List[Tuple[str, Callable[[], Function]]]:
    """The bench workload set (mirrors ``bench_analysis_speed.WORKLOADS``,
    including the 428-block random program)."""
    return [
        ("seq_loops_100", lambda: sequential_loops(100)),
        ("rand_struct_327", lambda: random_program(
            seed=1, max_blocks=400, max_vars=40, max_depth=6, break_prob=0.05
        )),
        ("seq_loops_200", lambda: sequential_loops(200)),
        ("rand_struct_428", lambda: random_program(
            seed=3, max_blocks=800, max_vars=48, max_depth=7, break_prob=0.04
        )),
    ]


def workload_names() -> List[str]:
    return [name for name, _ in _bench_workloads()]


def build_workload(name: str) -> Workload:
    """A runnable :class:`Workload` for one bench workload name."""
    for candidate, factory in _bench_workloads():
        if candidate == name:
            return Workload(factory(), dict(_ARGS), dict(_ARRAYS), name=name)
    raise ValueError(
        f"unknown workload {name!r}; choose from {workload_names()}"
    )


def allocation_fingerprint(
    workload: Workload,
    config: Optional[HierarchicalConfig] = None,
    machine: Optional[Machine] = None,
) -> Dict[str, object]:
    """Compile *workload* end-to-end and fingerprint the result.

    The fingerprint covers everything the determinism guarantee promises:
    the full allocated program text (assignments *and* inserted spill
    code, hashed), the spilled-variable set, and the simulator's dynamic
    cost counters.  ``compile_function`` also verifies the allocated
    program differentially against the original, so a fingerprint is only
    produced for a *correct* allocation.
    """
    machine = machine or Machine.simple(8)
    allocator = HierarchicalAllocator(config or HierarchicalConfig())
    result = compile_function(workload, allocator, machine)
    return _result_fingerprint(workload.label(), result)


def _result_fingerprint(label: str, result) -> Dict[str, object]:
    """The determinism fingerprint of one ``compile_function`` result."""
    text = format_function(result.fn)
    return {
        "workload": label,
        "blocks": len(result.fn.blocks),
        "program_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "spilled": sorted(result.stats.spilled_vars),
        "costs": {
            "spill_loads": result.allocated_run.spill_loads,
            "spill_stores": result.allocated_run.spill_stores,
            "moves": result.allocated_run.register_moves,
            "program_refs": result.allocated_run.program_memory_refs,
        },
    }


def edit_one_block(fn: Function) -> str:
    """Apply a deterministic single-block edit to *fn* in place.

    Bumps the immediate of one ``CONST`` instruction (the middle one in
    block order, skipping the start block when possible) by 1 and returns
    the edited block's label.  The edit is a pure function of the input,
    so two independently-built copies of the same workload receive the
    same edit -- which is what lets the incremental check compare a warm
    re-allocation against a fresh allocation of "the same edit".
    """
    from repro.ir.instructions import Opcode

    sites = [
        (block.label, i)
        for block in fn
        for i, instr in enumerate(block.instrs)
        if instr.op is Opcode.CONST and isinstance(instr.imm, int)
    ]
    inner = [s for s in sites if s[0] != fn.start_label]
    sites = inner or sites
    if not sites:
        raise RuntimeError(f"{fn.name}: no CONST instruction to edit")
    label, index = sites[len(sites) // 2]
    fn.block(label).instrs[index].imm += 1
    return label


def incremental_fingerprints(
    names: Sequence[str],
    registers: int = 8,
) -> Dict[str, Dict[str, object]]:
    """The per-tile memoization proof for *names* (tentpole determinism).

    For each workload: allocate cold with a tile store attached (filling
    it), apply the deterministic single-block edit of
    :func:`edit_one_block`, re-allocate *warm* against the same store,
    and allocate the same edited function *fresh* with no store.  Raises
    unless the warm incremental result is bit-identical to the fresh full
    one AND the reuse counters prove clean subtrees actually came from
    the store (at least one subtree reused, at least one dirty tile
    recomputed).  Returns, per workload, the cold/warm/full fingerprints
    plus the reuse counters -- all deterministic, so they join the
    cross-process comparison matrix.
    """
    from repro.core.incremental import TileCacheStore

    machine = Machine.simple(registers)
    config = HierarchicalConfig()
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        base = build_workload(name)
        edited = build_workload(name)
        edited_label = edit_one_block(edited.fn)

        store = TileCacheStore()
        allocator = HierarchicalAllocator(config, tile_store=store)
        cold = compile_function(base, allocator, machine)
        base_fp = _result_fingerprint(base.label(), cold)
        warm = compile_function(edited, allocator, machine)
        counters = dict(allocator.last_tile_cache or {})
        warm_fp = _result_fingerprint(edited.label(), warm)

        fresh = build_workload(name)
        edit_one_block(fresh.fn)
        full_fp = allocation_fingerprint(fresh, config=config, machine=machine)

        if warm_fp != full_fp:
            raise RuntimeError(
                f"{name}: warm incremental re-allocation diverges from the "
                f"fresh full allocation of the same edit:\n"
                f"  full:        {json.dumps(full_fp, sort_keys=True)}\n"
                f"  incremental: {json.dumps(warm_fp, sort_keys=True)}"
            )
        if counters.get("subtrees_reused", 0) < 1:
            raise RuntimeError(
                f"{name}: warm re-allocation reused no clean subtree "
                f"(counters: {counters}) -- the tile cache is not hitting"
            )
        if counters.get("tile_misses", 0) < 1:
            raise RuntimeError(
                f"{name}: warm re-allocation recomputed nothing "
                f"(counters: {counters}) -- the edit did not dirty a tile"
            )
        out[name] = {
            "edited_block": edited_label,
            "base": base_fp,
            "full": full_fp,
            "incremental": warm_fp,
            "reuse": counters,
        }
    return out


def batch_fingerprints(
    names: Sequence[str],
    batch_workers: int = 0,
    registers: int = 8,
) -> Dict[str, Dict[str, object]]:
    """Cold- and warm-cache batch-engine fingerprints for *names*.

    Runs the module twice through one :class:`~repro.batch.BatchEngine`
    (first pass computes -- in worker processes when ``batch_workers > 0``
    -- and fills the content-addressed cache; second pass must be served
    entirely from it) and returns, per workload, the determinism
    fingerprint of both passes.  Raises if the warm pass missed the cache
    or any record diverged, so a passing ``check`` really does cover the
    cached path bit-for-bit.
    """
    from repro.batch import BatchConfig, BatchEngine

    workloads = [build_workload(name) for name in names]
    batch = BatchConfig(batch_workers=batch_workers, registers=registers)
    with BatchEngine(batch=batch) as engine:
        cold = engine.allocate_module(workloads)
        warm = engine.allocate_module(workloads)

    out: Dict[str, Dict[str, object]] = {}
    for name, c, w in zip(names, cold, warm):
        if c.cached:
            raise RuntimeError(f"{name}: cold batch pass hit the cache")
        if not w.cached:
            raise RuntimeError(f"{name}: warm batch pass missed the cache")
        if c.record != w.record:
            raise RuntimeError(
                f"{name}: cached record diverges from computed record"
            )
        out[name] = {
            "cold": c.record.fingerprint_dict(),
            "warm": w.record.fingerprint_dict(),
        }
    return out


def service_fingerprints(
    names: Sequence[str],
    registers: int = 8,
) -> Dict[str, Dict[str, object]]:
    """Fingerprints of *names* served over HTTP by the allocation service.

    Starts a real :class:`~repro.service.AllocationService` on a loopback
    ephemeral port, submits the workloads twice through the real client
    (functions as text, simulator inputs attached) and rebuilds the
    determinism fingerprint from the wire payloads.  Raises if any
    request fails, if the warm pass missed the service's shared cache, or
    if cold and warm payloads diverge -- so a passing ``check --service``
    proves the serving layer transports allocations bit-for-bit.
    """
    import asyncio

    from repro.batch import BatchConfig
    from repro.service import AllocationService, ServiceClient, ServiceConfig

    workloads = [build_workload(name) for name in names]
    specs = [
        {
            "text": format_function(workload.fn),
            "name": workload.label(),
            "args": dict(workload.args),
            "arrays": {k: list(v) for k, v in workload.arrays.items()},
        }
        for workload in workloads
    ]

    async def _serve_and_allocate():
        config = ServiceConfig(batch=BatchConfig(
            batch_workers=0, registers=registers, simulate=True,
        ))
        async with AllocationService(config) as service:
            async with ServiceClient("127.0.0.1", service.port) as client:
                cold = await client.allocate(specs)
                warm = await client.allocate(specs)
                return cold, warm

    cold, warm = asyncio.run(_serve_and_allocate())
    for reply, label in ((cold, "cold"), (warm, "warm")):
        if reply.status != 200:
            raise RuntimeError(
                f"service {label} request failed: {reply.status} "
                f"{reply.data}"
            )

    def _payload_fingerprint(payload: Dict[str, object]) -> Dict[str, object]:
        return {
            "workload": payload["name"],
            "blocks": payload["blocks"],
            "program_sha256": payload["allocated_sha256"],
            "spilled": list(payload["spilled"]),
            "costs": dict(payload["costs"]),
        }

    out: Dict[str, Dict[str, object]] = {}
    for name, c, w in zip(names, cold.data["results"],
                          warm.data["results"]):
        if not (c["ok"] and w["ok"]):
            raise RuntimeError(
                f"{name}: service allocation failed: "
                f"{c['error'] or w['error']}"
            )
        if not w["cached"]:
            raise RuntimeError(
                f"{name}: warm served request missed the shared cache"
            )
        cold_fp = _payload_fingerprint(c)
        warm_fp = _payload_fingerprint(w)
        if cold_fp != warm_fp:
            raise RuntimeError(
                f"{name}: warm served payload diverges from cold:\n"
                f"  cold: {json.dumps(cold_fp, sort_keys=True)}\n"
                f"  warm: {json.dumps(warm_fp, sort_keys=True)}"
            )
        out[name] = cold_fp
    return out


def budgeted_fingerprints(
    names: Sequence[str],
    fuel: int,
    registers: int = 8,
) -> Dict[str, Dict[str, object]]:
    """Fingerprints of *names* allocated under a ``max_fuel`` budget.

    Proves the budget layer's determinism contract: charges only count
    and abort, they never alter decisions, so a budgeted run that
    completes is bit-identical to the unbudgeted run -- and the fuel
    spend itself is a pure function of the input.  Each dict carries the
    full allocation fingerprint plus a ``"budget"`` section (``fuel``,
    ``spent``, per-counter breakdown), so the cross-process ``check``
    also fails if two processes *charge* differently, even when they
    allocate identically.

    *fuel* must be generous enough for every named workload to complete;
    a workload that exhausts it raises (this is a determinism proof, not
    the survival harness -- ``benchmarks/bench_guard.py`` owns aborts).
    """
    machine = Machine.simple(registers)
    out: Dict[str, Dict[str, object]] = {}
    for name in names:
        allocator = HierarchicalAllocator(
            budget_limits=BudgetLimits(max_fuel=fuel)
        )
        result = compile_function(build_workload(name), allocator, machine)
        fp = _result_fingerprint(name, result)
        snap = allocator.last_budget or {}
        fp["budget"] = {
            "fuel": fuel,
            "spent": snap.get("spent"),
            "counters": snap.get("counters", {}),
        }
        out[name] = fp
    return out


def fingerprint_workloads(
    names: Sequence[str],
    registers: int = 8,
    batch_workers: Optional[int] = None,
    service: bool = False,
    incremental: bool = False,
    budget_fuel: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Fingerprints for *names*, in order, under the default config.

    With *batch_workers* set (``>= 0``), each workload's dict also
    carries a ``"batch"`` section -- the cold/warm batch-engine
    fingerprints -- after asserting the cold batch result is identical to
    the directly-computed fingerprint, so ``check`` compares cached,
    pooled and direct allocations across all its hash seeds.

    With *service* set, the workloads are additionally round-tripped over
    HTTP through a live :class:`~repro.service.AllocationService`; each
    served payload must be bit-identical to the direct fingerprint and
    joins the dict under ``"service"``.

    With *incremental* set, each workload also runs the edit-and-reuse
    proof of :func:`incremental_fingerprints`; the cold store-attached
    fingerprint must match the direct one and the whole section joins the
    dict under ``"incremental"`` (reuse counters included).

    With *budget_fuel* set, each workload is additionally allocated under
    a ``max_fuel`` budget of that many units; the budgeted result must be
    bit-identical to the unbudgeted fingerprint (charges never change
    decisions) and the fuel-spend section joins the dict under
    ``"budget"``.
    """
    machine = Machine.simple(registers)
    prints = {
        name: allocation_fingerprint(build_workload(name), machine=machine)
        for name in names
    }
    served: Optional[Dict[str, Dict[str, object]]] = None
    if service:
        served = service_fingerprints(names, registers=registers)
        for name in names:
            if served[name] != prints[name]:
                raise RuntimeError(
                    f"{name}: served fingerprint diverges from the direct "
                    f"pipeline:\n"
                    f"  direct: {json.dumps(prints[name], sort_keys=True)}\n"
                    f"  served: {json.dumps(served[name], sort_keys=True)}"
                )
    if batch_workers is not None:
        batched = batch_fingerprints(
            names, batch_workers=batch_workers, registers=registers
        )
        for name in names:
            if batched[name]["cold"] != prints[name]:
                raise RuntimeError(
                    f"{name}: batch-engine fingerprint diverges from the "
                    f"direct pipeline:\n"
                    f"  direct: {json.dumps(prints[name], sort_keys=True)}\n"
                    f"  batch:  "
                    f"{json.dumps(batched[name]['cold'], sort_keys=True)}"
                )
            prints[name]["batch"] = batched[name]
    if incremental:
        incr = incremental_fingerprints(names, registers=registers)
        for name in names:
            # The batch section may already be attached; compare against
            # the bare direct fingerprint.
            bare = {
                k: v for k, v in prints[name].items() if k != "batch"
            }
            if incr[name]["base"] != bare:
                raise RuntimeError(
                    f"{name}: cold store-attached allocation diverges from "
                    f"the direct pipeline:\n"
                    f"  direct: {json.dumps(bare, sort_keys=True)}\n"
                    f"  store:  "
                    f"{json.dumps(incr[name]['base'], sort_keys=True)}"
                )
            prints[name]["incremental"] = incr[name]
    if budget_fuel is not None:
        budgeted = budgeted_fingerprints(
            names, budget_fuel, registers=registers
        )
        for name in names:
            bare = {
                k: v for k, v in prints[name].items()
                if k not in ("batch", "incremental")
            }
            got = {k: v for k, v in budgeted[name].items() if k != "budget"}
            if got != bare:
                raise RuntimeError(
                    f"{name}: budgeted allocation diverges from the "
                    f"unbudgeted pipeline (charges must never alter "
                    f"decisions):\n"
                    f"  unbudgeted: {json.dumps(bare, sort_keys=True)}\n"
                    f"  budgeted:   {json.dumps(got, sort_keys=True)}"
                )
            prints[name]["budget"] = budgeted[name]["budget"]
    if served is not None:
        # Attached last: the batch comparison above matches against the
        # bare direct fingerprint.
        for name in names:
            prints[name]["service"] = served[name]
    return prints


# ----------------------------------------------------------------------
# subprocess plumbing
# ----------------------------------------------------------------------
def _src_pythonpath() -> str:
    """PYTHONPATH that makes ``import repro`` work in a child process."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    return src + (os.pathsep + existing if existing else "")


def fingerprint_in_subprocess(
    names: Sequence[str],
    hash_seed: str,
    registers: int = 8,
    batch_workers: Optional[int] = None,
    service: bool = False,
    incremental: bool = False,
    budget_fuel: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Run ``fingerprint`` in a fresh interpreter under *hash_seed*."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = _src_pythonpath()
    cmd = [
        sys.executable,
        "-m",
        "repro.determinism",
        "fingerprint",
        "--workloads",
        ",".join(names),
        "--registers",
        str(registers),
    ]
    if batch_workers is not None:
        cmd += ["--batch", str(batch_workers)]
    if service:
        cmd += ["--service"]
    if incremental:
        cmd += ["--incremental"]
    if budget_fuel is not None:
        cmd += ["--budget", str(budget_fuel)]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"fingerprint subprocess failed (seed={hash_seed}):\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout)


def cross_process_check(
    names: Sequence[str],
    hash_seeds: Sequence[str] = DEFAULT_HASH_SEEDS,
    registers: int = 8,
    batch_workers: Optional[int] = None,
    service: bool = False,
    incremental: bool = False,
    budget_fuel: Optional[int] = None,
) -> List[str]:
    """Compare fingerprints across every hash seed.

    With *batch_workers* set, each subprocess additionally pushes the
    module through the batch engine twice (cold compute + warm cache) and
    the batch fingerprints join the comparison -- one divergent cached
    byte anywhere in the matrix fails the check.  With *service* set,
    each subprocess also serves the module over HTTP through a live
    allocation service and the served payloads join the comparison --
    one divergent served byte anywhere in the matrix fails the check.
    With *incremental* set, each subprocess additionally runs the
    edit-and-reuse proof (warm incremental re-allocation must be
    bit-identical to a fresh full allocation of the same edit, with the
    reuse counters in the compared fingerprints).  With *budget_fuel*
    set, each subprocess additionally allocates under a fuel budget and
    the spend counters join the comparison -- a process that charges
    differently fails even if it allocates identically.

    Returns a list of human-readable mismatch descriptions; empty means
    every hash seed produced bit-identical results.
    """
    runs: Dict[str, Dict[str, Dict[str, object]]] = {
        seed: fingerprint_in_subprocess(
            names, seed, registers=registers,
            batch_workers=batch_workers, service=service,
            incremental=incremental, budget_fuel=budget_fuel,
        )
        for seed in hash_seeds
    }

    baseline_seed = hash_seeds[0]
    baseline = runs[baseline_seed]
    problems: List[str] = []
    for seed, run in runs.items():
        if seed == baseline_seed:
            continue
        for name in names:
            if run[name] != baseline[name]:
                problems.append(
                    f"{name}: seed={seed} diverges from "
                    f"seed={baseline_seed}:\n"
                    f"  baseline: {json.dumps(baseline[name], sort_keys=True)}\n"
                    f"  got:      {json.dumps(run[name], sort_keys=True)}"
                )
    return problems


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_names(spec: str) -> List[str]:
    if spec == "all":
        return workload_names()
    return [part for part in spec.split(",") if part]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.determinism",
        description="allocation reproducibility fingerprints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fingerprint", help="print fingerprints as JSON")
    fp.add_argument("--workloads", default="all")
    fp.add_argument("--registers", type=int, default=8)
    fp.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="also fingerprint via the batch engine (cold + warm cache) "
        "with N pool workers (0 = in-process)",
    )
    fp.add_argument(
        "--service", action="store_true",
        help="also round-trip the workloads over HTTP through a live "
        "allocation service; served payloads must match the direct "
        "pipeline bit-for-bit",
    )
    fp.add_argument(
        "--incremental", action="store_true",
        help="also run the per-tile memoization proof: edit one block, "
        "re-allocate warm against the tile store, compare bit-for-bit "
        "against a fresh full allocation of the same edit",
    )
    fp.add_argument(
        "--budget", type=int, default=None, metavar="FUEL",
        help="also allocate each workload under a max_fuel budget of "
        "FUEL units; the budgeted result must be bit-identical to the "
        "unbudgeted one and the fuel-spend counters join the fingerprint",
    )

    ck = sub.add_parser(
        "check",
        help="compare fingerprints across hash seeds",
    )
    ck.add_argument("--workloads", default="all")
    ck.add_argument(
        "--seeds", default=",".join(DEFAULT_HASH_SEEDS),
        help="comma-separated PYTHONHASHSEED values",
    )
    ck.add_argument("--registers", type=int, default=8)
    ck.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="include batch-engine cold/warm cache fingerprints (N pool "
        "workers, 0 = in-process) under every seed",
    )
    ck.add_argument(
        "--service", action="store_true",
        help="include HTTP-served fingerprints (a live allocation "
        "service per subprocess) under every seed",
    )
    ck.add_argument(
        "--incremental", action="store_true",
        help="include the per-tile memoization proof (warm incremental "
        "== fresh full, reuse counters compared) under every seed",
    )
    ck.add_argument(
        "--budget", type=int, default=None, metavar="FUEL",
        help="include budgeted-allocation fingerprints (max_fuel=FUEL; "
        "fuel-spend counters compared) under every seed",
    )

    args = parser.parse_args(argv)
    names = _parse_names(args.workloads)

    if args.command == "fingerprint":
        prints = fingerprint_workloads(
            names, registers=args.registers,
            batch_workers=args.batch, service=args.service,
            incremental=args.incremental, budget_fuel=args.budget,
        )
        json.dump(prints, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    seeds = [s for s in args.seeds.split(",") if s]
    problems = cross_process_check(
        names, hash_seeds=seeds, registers=args.registers,
        batch_workers=args.batch, service=args.service,
        incremental=args.incremental, budget_fuel=args.budget,
    )
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(
            f"FAIL: {len(problems)} divergence(s) across {len(seeds)} "
            f"hash seeds",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {len(names)} workload(s) bit-identical across {len(seeds)} "
        f"hash seeds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
