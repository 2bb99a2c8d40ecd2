"""Reports built from several runs of ``run.py``.

``spread``: runs one workload once per seed and prints, for each
end-to-end metric, its median and the interquartile range as a share of
the median, against the metric's bound in BENCHMARK.json::

    python3 perfbench/report.py spread --workload large_fn --seeds 1-10

``trace``: runs one workload untraced and then traced twice with one seed.
It prints the tracing overhead (traced over untraced value of each
end-to-end metric), checks that all three runs print one
``output_digest`` and that every input-determined count repeats exactly
across the two traced runs, and prints the per-layer metrics::

    python3 perfbench/report.py trace --workload module_cold --seed 3

Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import spread  # noqa: E402
from layers import FUEL  # noqa: E402

#: Counts that are a pure function of the inputs, so two traced runs with
#: one seed must print them identically.  The engine, tile-cache and
#: service counters are not among them: they depend on how many passes or
#: requests fit in ``--seconds`` and on the race between two connections.
EXACT_COUNTS = (
    "tiles.count", "tiles.height", "tiles.fixup_blocks", "graph.max_nodes",
    "graph.max_edges", "phase1.recolor_rounds", "phase2.spilled_vars",
    "simulate.steps", "dyn_spill_refs", "dyn_moves", "code_instrs",
) + tuple(f"fuel.{name}" for name in FUEL)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its ``detail:`` object plus ``result``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed:\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    detail["result"] = json.loads(lines[-1])
    return detail


def _bounds() -> Dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_spread(args) -> int:
    bounds = _bounds()
    runs = []
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        detail = run_once(args.workload, seed, args.seconds, 0)
        detail["run_wall_s"] = time.perf_counter() - start
        runs.append(detail)
        result = detail["result"]
        values = " ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"calib={detail['host.calib_ms']:.1f}ms "
              f"wall={detail['run_wall_s']:.1f}s {values}", flush=True)
    ok = all(r["result"]["correct"] and not r["result"]["failed"]
             for r in runs)
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':16s} {'median':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        share = spread(values) if len(values) >= 2 else 0.0
        verdict = "ok" if share < bound / 3 or name == "setup_s" else "WIDE"
        if verdict != "ok":
            ok = False
        print(f"{name:16s} {statistics.median(values):12.4f} {share:8.4f} "
              f"{bound:6.2f} {verdict}")
    return 0 if ok else 1


def cmd_trace(args) -> int:
    plain = run_once(args.workload, args.seed, args.seconds, 0)
    traced = [run_once(args.workload, args.seed, args.seconds, 1)
              for _ in range(2)]
    ok = True
    print(f"{args.workload} seed {args.seed}: tracing overhead "
          "(traced / untraced)")
    for name, (value, unit, _) in plain["metrics"].items():
        other = traced[0]["metrics"].get(name)
        if other is None or not value:
            continue
        print(f"  {name:22s} {value:12.4f} -> {other[0]:12.4f} {unit:6s} "
              f"x{other[0] / value:.3f}")
    digests = {plain["output_digest"]} | {t["output_digest"] for t in traced}
    print(f"output_digest: {'one value' if len(digests) == 1 else digests}")
    ok &= len(digests) == 1
    for name in EXACT_COUNTS:
        a = traced[0]["metrics"][name][0]
        b = traced[1]["metrics"][name][0]
        if a != b:
            print(f"count {name} differs between traced runs: {a} != {b}")
            ok = False
    print(f"exact counts repeat: {ok}")
    for run in [plain] + traced:
        ok &= run["correct"] and not run["result"]["failed"]
    print("per-layer metrics (first traced run):")
    for name, (value, unit, samples) in sorted(traced[0]["metrics"].items()):
        print(f"  {name:24s} {value:14.4f} {unit:6s} n={samples}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=25.0)
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("trace")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.set_defaults(func=cmd_trace)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
