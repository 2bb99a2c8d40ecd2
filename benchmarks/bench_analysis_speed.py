"""E16 -- analysis-layer and end-to-end allocation speed.

The performance core replaced string-set dataflow with interned bitsets
(``repro.perf.VarIndex``) over a flat per-function arena.  On its own the
whole-function analysis layer (liveness, per-instruction scans and
``build_interference``) is *not* faster: ``test_analysis_layer`` reports
it at 0.9-1.2x the string-set seed oracle on the 204-428-block workloads
(2-vCPU host, CPython 3.11), and it gates nothing.  The speed comes from
how the allocator uses the bitsets -- per-tile relevant filtering,
memoized block liveness, boundary-mask reuse -- so the gates below are
end to end, against the committed seed baseline in
``BENCH_analysis_speed.json``:

* end-to-end hierarchical allocation must be >= 3x faster than the seed
  on the largest generated workload (``rand_struct_428``, a structured
  random program of 428 blocks).  The seed numbers were recorded on one
  machine; to compare on any machine the bench re-measures the string-set
  reference analysis (``repro.analysis.reference`` -- the seed algorithm,
  preserved verbatim) and scales the recorded baseline by the ratio of
  calibration times.

Each run also refreshes the ``current`` section of the baseline JSON so
future PRs have a perf trajectory to compare against.
"""

import json
import os
import subprocess
import sys
import time

from conftest import fmt_row, report

from repro.analysis.liveness import liveness_from_arena
from repro.analysis.reference import reference_interference, reference_liveness
from repro.core import HierarchicalAllocator, HierarchicalConfig
from repro.graph.interference import build_interference
from repro.machine.target import Machine
from repro.perf.arena import build_arena
from repro.workloads.generators import random_program
from repro.workloads.kernels import sequential_loops

MACHINE = Machine.simple(8)
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_analysis_speed.json"
)

#: (name, factory) -- ``rand_struct_428`` is the "largest generated
#: workload" of the acceptance criteria (structured random program,
#: >= 200 blocks).
WORKLOADS = [
    ("seq_loops_100", lambda: sequential_loops(100)),
    ("rand_struct_327", lambda: random_program(
        seed=1, max_blocks=400, max_vars=40, max_depth=6, break_prob=0.05
    )),
    ("seq_loops_200", lambda: sequential_loops(200)),
    ("rand_struct_428", lambda: random_program(
        seed=3, max_blocks=800, max_vars=48, max_depth=7, break_prob=0.04
    )),
]
LARGEST = "rand_struct_428"


def _time(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _run_analysis_reference(fn):
    liv = reference_liveness(fn)
    for label in fn.blocks:
        liv.instr_live_out(label)
    reference_interference(fn, liv)


def _run_analysis_bitset(fn):
    """The allocator's analysis path: arena lowering, worklist liveness,
    per-instruction scans and interference from the arena tables."""
    liv = liveness_from_arena(build_arena(fn))
    for label in fn.blocks:
        liv.instr_live_out_bits(label)
    build_interference(fn, liv)


def _allocate(fn, config):
    allocator = HierarchicalAllocator(config)
    return allocator.allocate(fn.clone(), MACHINE)


def _load_baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


_history_recorded = False


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _save_baseline(data):
    # Allocation output is seed-independent (see tests/determinism), but
    # *timings* can still drift with the hash salt (dict/set layouts), so
    # every refresh records the interpreter's hash-randomization state.
    # Run under PYTHONHASHSEED=0 (as CI does) for comparable baselines.
    global _history_recorded
    data.setdefault("current", {})["environment"] = {
        "python_hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "hash_randomization": bool(sys.flags.hash_randomization),
        "python_version": ".".join(str(v) for v in sys.version_info[:3]),
    }
    # One history entry per bench session records the speed trajectory
    # across PRs (the per-workload numbers live in "current"; history is
    # just "who measured, when").  Capped so the file stays reviewable.
    if not _history_recorded:
        history = data.setdefault("history", [])
        history.append({
            "git_sha": _git_sha(),
            "timestamp": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
            ),
        })
        del history[:-50]
        _history_recorded = True
    with open(BASELINE_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def test_analysis_layer(benchmark):
    """Bitset liveness + interference vs the seed's string-set algorithms.

    Reporting only: the speedup here measures the whole-function analysis
    pass in isolation.  The big wins (per-tile relevant filtering, memoized
    block liveness, boundary-mask reuse) only show up inside the full
    allocation -- which the end-to-end test below gates."""
    widths = [16, 8, 12, 12, 8]
    rows = [fmt_row(
        ["workload", "blocks", "strset (ms)", "bitset (ms)", "speedup"],
        widths,
    )]
    analysis = {}
    for name, factory in WORKLOADS:
        fn = factory()
        ref = _time(lambda: _run_analysis_reference(fn))
        fast = _time(lambda: _run_analysis_bitset(fn))
        speedup = ref / max(fast, 1e-9)
        analysis[name] = {
            "strset_s": round(ref, 4),
            "bitset_s": round(fast, 4),
        }
        rows.append(fmt_row(
            [name, len(fn.blocks), round(ref * 1e3, 2),
             round(fast * 1e3, 2), round(speedup, 1)],
            widths,
        ))
    report("E16_analysis_layer", rows)

    data = _load_baseline()
    data.setdefault("current", {})["analysis_layer"] = analysis
    _save_baseline(data)

    fn = sequential_loops(100)
    benchmark(lambda: _run_analysis_bitset(fn))


def test_end_to_end_speedup(benchmark):
    """>= 3x end-to-end allocation speedup over the recorded seed baseline.

    The normalized speedup on a machine M is

        (seed_e2e_recorded / current_e2e_on_M) * (calib_on_M / calib_recorded)

    where calib is the string-set reference analysis -- the seed's own
    algorithm, so its runtime moves with machine speed but not with this
    repo's optimizations."""
    baseline = _load_baseline()
    seed_wl = baseline["seed_baseline"]["workloads"]

    widths = [16, 8, 12, 12, 10]
    rows = [fmt_row(
        ["workload", "blocks", "seed (ms)*", "now (ms)", "speedup"],
        widths,
    )]
    current = {}
    speedups = {}
    for name, factory in WORKLOADS:
        fn = factory()
        cur = _time(lambda: _allocate(fn, HierarchicalConfig()), repeats=3)
        calib_now = _time(lambda: _run_analysis_reference(fn), repeats=3)
        rec = seed_wl[name]
        machine_ratio = calib_now / max(rec["calibration_strset_s"], 1e-9)
        seed_scaled = rec["end_to_end_s"] * machine_ratio
        speedup = seed_scaled / max(cur, 1e-9)
        speedups[name] = speedup
        current[name] = {
            "blocks": len(fn.blocks),
            "end_to_end_s": round(cur, 4),
            "calibration_strset_s": round(calib_now, 4),
            "speedup_vs_seed": round(speedup, 2),
        }
        rows.append(fmt_row(
            [name, len(fn.blocks), round(seed_scaled * 1e3, 1),
             round(cur * 1e3, 1), round(speedup, 2)],
            widths,
        ))
    rows.append("* seed time scaled by the strset-calibration ratio")
    report("E16_end_to_end_vs_seed", rows)

    data = _load_baseline()
    data.setdefault("current", {})["end_to_end"] = current
    _save_baseline(data)

    # Acceptance: >= 3x on the largest generated workload.
    assert speedups[LARGEST] >= 3.0, (
        f"{LARGEST}: end-to-end speedup {speedups[LARGEST]:.2f}x < 3x"
    )

    prepared = sequential_loops(100)
    benchmark(lambda: _allocate(prepared, HierarchicalConfig()))


def _calibration_ratio(baseline):
    """now/recorded aggregate string-set calibration over the four bench
    workloads -- the machine-speed normalizer shared by every gate."""
    seed_wl = baseline["seed_baseline"]["workloads"]
    calib_now = 0.0
    for name, factory in WORKLOADS:
        fn = factory()
        calib_now += _time(lambda: _run_analysis_reference(fn), repeats=3)
    calib_rec = sum(
        seed_wl[name]["calibration_strset_s"] for name, _ in WORKLOADS
    )
    return calib_now / max(calib_rec, 1e-9)


def test_cold_path_throughput(benchmark):
    """>= 3x cold-module throughput over the seed-equivalent baseline.

    Cold path = what a compiler pays on first contact with a module:
    format + fingerprint + parse + full hierarchical allocation with
    differential verification, inline (``batch_workers=0``) through a
    fresh :class:`~repro.batch.BatchEngine` so no cache and no pool
    startup pollute the number.

    The gate anchors on the frozen ``cold_path_anchor`` section of the
    baseline JSON (see its ``note`` for the full derivation): the seed
    tree predates the batch engine, so its cold fn/s is derived as the
    first recorded batch throughput divided by the recorded seed/PR-4
    aggregate end-to-end ratio, then machine-normalized by the string-set
    calibration ratio.  The PR-4-relative trajectory (against
    ``recorded_cold_fps`` itself) is *reported* but not gated -- that
    number was recorded on an already-optimized tree, so holding it to
    3x would be dishonest bookkeeping, not a perf target.

    The per-stage attribution table comes from the engine's
    :class:`~repro.perf.StageTimers` (the ``--profile`` hook), so a
    regression here names the stage that caused it.
    """
    from repro.batch import BatchConfig, BatchEngine, synthetic_module

    baseline = _load_baseline()
    anchor = baseline["cold_path_anchor"]

    workloads = synthetic_module(anchor["recorded_module_functions"])
    n = len(workloads)
    batch = BatchConfig(batch_workers=0)
    best = float("inf")
    timers = None
    for _ in range(3):
        with BatchEngine(batch=batch) as engine:
            start = time.perf_counter()
            module = engine.allocate_module(workloads)
            elapsed = time.perf_counter() - start
        assert not any(r.cached for r in module), "cold pass hit the cache"
        assert not module.failures, "cold pass had failures"
        if elapsed < best:
            best = elapsed
            timers = engine.timers
    cold_fps = n / max(best, 1e-9)

    machine_ratio = _calibration_ratio(baseline)
    # fps scales inversely with time: a slower machine (ratio > 1) would
    # have recorded proportionally fewer fn/s.
    seed_fps_here = anchor["seed_equiv_cold_fps"] / machine_ratio
    pr4_fps_here = anchor["recorded_cold_fps"] / machine_ratio
    speedup_vs_seed = cold_fps / max(seed_fps_here, 1e-9)
    speedup_vs_pr4 = cold_fps / max(pr4_fps_here, 1e-9)

    widths = [26, 12]
    rows = [fmt_row(["metric", "value"], widths)]
    rows.append(fmt_row(["module functions", n], widths))
    rows.append(fmt_row(["cold wall (s)", round(best, 4)], widths))
    rows.append(fmt_row(["cold fn/s", round(cold_fps, 2)], widths))
    rows.append(fmt_row(
        ["seed-equiv fn/s*", round(seed_fps_here, 2)], widths
    ))
    rows.append(fmt_row(
        ["speedup vs seed", round(speedup_vs_seed, 2)], widths
    ))
    rows.append(fmt_row(
        ["speedup vs PR-4 (report)", round(speedup_vs_pr4, 2)], widths
    ))
    rows.append("* machine-normalized; derivation in cold_path_anchor.note")
    rows.append("stage attribution (summed across the module):")
    rows.extend("  " + line for line in timers.report(total=best).splitlines())
    report("E16_cold_path", rows)

    data = _load_baseline()
    data.setdefault("current", {})["cold_path"] = {
        "module_functions": n,
        "cold_s": round(best, 4),
        "cold_fps": round(cold_fps, 2),
        "speedup_vs_seed": round(speedup_vs_seed, 2),
        "speedup_vs_pr4": round(speedup_vs_pr4, 2),
        "stage_times_s": {
            name: round(seconds, 4)
            for name, seconds in sorted(timers.as_dict().items())
        },
    }
    _save_baseline(data)

    # Floor set after the dense select-loop / arena temp-node PR, whose
    # calibrated runs measured 5.2-7.6x on a noisy shared host (worst
    # observed sample 4.31x); 4.0 keeps headroom for machine jitter while
    # still catching a real regression to the pre-dense-engine level.
    assert speedup_vs_seed >= 4.0, (
        f"cold path {cold_fps:.1f} fn/s is only {speedup_vs_seed:.2f}x "
        f"the seed-equivalent {seed_fps_here:.1f} fn/s (need >= 4x)"
    )

    small = synthetic_module(8)
    with BatchEngine(batch=BatchConfig(batch_workers=0)) as engine:

        def run():
            engine.cache.clear_memory()
            engine.allocate_module(small)

        benchmark(run)
