"""The E4 golden ledger: allocated output pinned across commits.

The determinism gate compares processes, hash seeds and pool sizes
within one commit; this ledger compares commits.  It holds one row per
(kernel of ``all_kernel_workloads(10)``, R in ``REGISTERS``, allocator),
plus ``optimize=True`` rows at R=4 for the allocators in
``OPTIMIZED_ALLOCATORS`` (the dead-code-elimination path).  A row holds
the sha256 of the allocated program text, the sorted spilled set and the
simulated spill loads, spill stores and register moves.

``tests/test_golden.py`` compares every row exactly.  Any ledger change
is an output change and needs its explanation in CHANGES.md.

Rewrite the ledger and print a per-row diff against the old one::

    PYTHONPATH=src python tests/golden/regenerate.py

``--check`` prints the diff without writing and exits 1 when a row moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

from repro.allocators import BriggsAllocator, ChaitinAllocator, LocalAllocator
from repro.core import HierarchicalAllocator
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.pipeline import compile_function
from repro.workloads.kernels import all_kernel_workloads

LEDGER_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "e4_ledger.json")

REGISTERS = (2, 4, 6, 8, 12)
ALLOCATORS = {
    cls.name: cls
    for cls in (HierarchicalAllocator, ChaitinAllocator, BriggsAllocator, LocalAllocator)
}
OPTIMIZED_REGISTERS = 4
OPTIMIZED_ALLOCATORS = ("hierarchical", "chaitin", "local")

Key = Tuple[str, int, str, bool]


def row_key(row: Dict[str, object]) -> Key:
    return (row["workload"], row["registers"], row["allocator"], row["optimize"])


def _row(workload, registers: int, allocator: str, optimize: bool) -> Dict[str, object]:
    result = compile_function(
        workload, ALLOCATORS[allocator](), Machine.simple(registers), optimize=optimize
    )
    run = result.allocated_run
    return {
        "workload": workload.label(),
        "registers": registers,
        "allocator": allocator,
        "optimize": optimize,
        "program_sha256": hashlib.sha256(format_function(result.fn).encode()).hexdigest(),
        "spilled": sorted(result.stats.spilled_vars),
        "spill_loads": run.spill_loads,
        "spill_stores": run.spill_stores,
        "moves": run.register_moves,
    }


def compute_rows() -> List[Dict[str, object]]:
    """Run the whole sweep; rows sorted by key."""
    rows = []
    for workload in all_kernel_workloads(10):
        for registers in REGISTERS:
            for allocator in ALLOCATORS:
                rows.append(_row(workload, registers, allocator, False))
        for allocator in OPTIMIZED_ALLOCATORS:
            rows.append(_row(workload, OPTIMIZED_REGISTERS, allocator, True))
    return sorted(rows, key=row_key)


def e4_totals(rows: List[Dict[str, object]]) -> Dict[str, int]:
    """Total dynamic overhead (spill loads + stores + moves) per allocator
    over the unoptimized rows: the E4 totals."""
    totals = {name: 0 for name in ALLOCATORS}
    for row in rows:
        if not row["optimize"]:
            totals[row["allocator"]] += row["spill_loads"] + row["spill_stores"] + row["moves"]
    return totals


def dumps(rows: List[Dict[str, object]]) -> str:
    """One row per line, so a ledger change reads as a line diff."""
    body = ",\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return "[\n" + body + "\n]\n"


def load(path: str = LEDGER_PATH) -> List[Dict[str, object]]:
    with open(path) as f:
        return json.load(f)


def diff(old: List[Dict[str, object]], new: List[Dict[str, object]]) -> List[str]:
    """Readable per-row differences (empty when the ledgers agree)."""
    old_by = {row_key(row): row for row in old}
    new_by = {row_key(row): row for row in new}
    lines = []
    for key in sorted(set(old_by) | set(new_by)):
        label = "{} R={} {}{}".format(key[0], key[1], key[2], " optimize" if key[3] else "")
        before, after = old_by.get(key), new_by.get(key)
        if before is None:
            lines.append(f"+ {label}: new row")
        elif after is None:
            lines.append(f"- {label}: row removed")
        elif before != after:
            changed = [
                f"{field} {before.get(field)} -> {after.get(field)}"
                for field in sorted(set(before) | set(after))
                if before.get(field) != after.get(field)
            ]
            lines.append(f"~ {label}: " + "; ".join(changed))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="print the diff against the committed ledger without writing it",
    )
    args = parser.parse_args(argv)
    rows = compute_rows()
    old = load() if os.path.exists(LEDGER_PATH) else []
    changes = diff(old, rows)
    for line in changes:
        print(line)
    print(f"{len(rows)} rows, {len(changes)} changed; E4 totals {e4_totals(rows)}")
    if args.check:
        return 1 if changes else 0
    with open(LEDGER_PATH, "w") as f:
        f.write(dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
