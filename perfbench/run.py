"""The allocator's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload module_cold --seed 1 --seconds 25 --trace 0

prints a readable report, a ``detail:`` line for ``report.py``, and as its
last line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (spans are also written to ``perfbench/out/``).  Every
output is checked against a simulation of the unallocated program.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from common import (  # noqa: E402
    OUT_DIR,
    SRC,
    Run,
    blas_setting,
    output_digest,
)

#: End-to-end metrics (printed with ``--trace 0``), as in BENCHMARK.json.
END_TO_END = (
    "setup_s", "cold_fps", "alloc_p50_ms", "alloc_p90_ms", "req_rps",
    "req_p50_ms", "req_p99_ms", "peak_rss_mb", "dyn_spill_refs", "dyn_moves",
    "code_instrs",
)

#: Per-layer metrics (printed with ``--trace 1``), as in BENCHMARK.json.
PER_LAYER = (
    "renaming.ms", "tiles.ms", "tiles.count", "tiles.height",
    "tiles.fixup_blocks", "arena.ms", "fuel.instrs", "liveness.ms",
    "fuel.liveness", "frequency.ms", "frequency.first_ms", "context.ms",
    "phase1.ms", "fuel.graph", "fuel.edges", "fuel.simplify", "fuel.rounds",
    "fuel.tiles", "graph.max_nodes", "graph.max_edges",
    "phase1.recolor_rounds", "phase2.ms", "fuel.moves", "phase2.spilled_vars",
    "rewrite.ms", "allocate.ms", "simulate.ms", "simulate.steps",
    "ir.parse_ms", "ir.format_ms", "engine.compute_ms", "engine.wall_ms",
    "engine.hits", "engine.misses", "engine.hit_ratio", "engine.retries",
    "engine.pool_restarts", "engine.degraded", "tile.hits", "tile.misses",
    "tile.hit_ratio", "tile.subtrees_reused", "service.server_p50_ms",
    "service.client_gap_ms", "service.coalesced", "service.queue_peak",
    "req.new_p50_ms", "req.repeat_p50_ms", "req.edit_p50_ms", "host.calib_ms",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("module_cold", "large_fn",
                                               "service_mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's tests")
    parser.add_argument("--probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)  # set-up child process
    args = parser.parse_args(argv)
    if args.workload is None and args.probe is None:
        parser.error("--workload is required")
    return args


def report(run: Run) -> dict:
    """Print the readable report and the ``detail:`` line; return the
    final result object."""
    fail_ratio = run.failed / run.attempted if run.attempted else 1.0
    digest = output_digest(run.digest_hashes)
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds:g}"
          f"  trace {int(run.trace)}")
    calib_ms = run.metrics["host.calib_ms"].value
    for name, metric in run.metrics.items():
        raw = f"  raw {run.raw[name]:.4f}" if name in run.raw else ""
        print(f"  {name:24s} {metric.value:14.4f} {metric.unit:6s}"
              f" n={metric.samples}{raw}")
    print(f"  {'fail_ratio':24s} {fail_ratio:14.4f} {'ratio':6s}"
          f" attempted={run.attempted} failed={run.failed}")
    print(f"  output_digest {digest} over {len(run.digest_hashes)} programs")
    print(f"  host.calib_ms {calib_ms:.2f}  blas {blas_setting()}")
    for key, value in run.notes.items():
        print(f"  {key}: {value}")
    for what in run.wrong[:20]:
        print(f"  WRONG: {what}")
    for what in run.errors:
        print(f"  FAILED: {what}")
    print("detail: " + json.dumps({
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "metrics": {k: [m.value, m.unit, m.samples]
                    for k, m in run.metrics.items()},
        "raw": run.raw,
        "fail_ratio": fail_ratio, "output_digest": digest,
        "host.calib_ms": calib_ms, "blas": blas_setting(),
        "correct": run.correct,
    }, sort_keys=True))
    wanted = PER_LAYER if run.trace else END_TO_END
    missing = [name for name in wanted if name not in run.metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name].value,
                   "unit": run.metrics[name].unit}
            for name in wanted
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Measure the checkout's own program, and fail before any output
    # where there is none.
    if not os.path.isdir(SRC):
        sys.exit(f"no program to measure: {SRC} is missing")
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"repro was imported from {repro.__file__}, not {SRC}")

    from inputs import SIZES
    from workloads import WORKLOADS, probe

    if args.probe:
        probe(args.probe)
        return 0
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run, SIZES[args.size])
    run.put("host.calib_ms", run.host.mean_ms(), "ms",
            len(run.host.samples))
    if run.trace:
        run.spans.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-s{args.seed}.json"))
    result = report(run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
