"""E17 -- cross-process allocation reproducibility.

PR 1 left a caveat: per-process string-hash salting could permute set
iteration order inside seed-inherited tie-breaks, so allocation output
could differ between processes on large random programs.  PR 2 replaced
every order-sensitive choice point with a canonical order; this bench is
the continuous proof.

Every bench workload (including the 428-block random program) is
allocated and simulated in fresh subprocesses under >= 3 distinct
``PYTHONHASHSEED`` values, each also pushed through the batch engine
in-process and with 2 pool workers, and the resulting fingerprints --
allocated program hash, spill set, dynamic cost counters -- must be
bit-identical across the whole matrix.
"""

from conftest import fmt_row, report

from repro.determinism import (
    DEFAULT_HASH_SEEDS,
    fingerprint_in_subprocess,
    workload_names,
)

WORKLOADS = workload_names()

#: (hash seed, batch pool workers): three salts x {in-process, 2 worker
#: processes} -- every execution mode in one comparison.
MATRIX = [
    (seed, workers)
    for seed in DEFAULT_HASH_SEEDS
    for workers in (0, 2)
]


def test_cross_process_determinism():
    runs = {
        key: fingerprint_in_subprocess(
            WORKLOADS, key[0], batch_workers=key[1]
        )
        for key in MATRIX
    }
    baseline_key = MATRIX[0]
    baseline = runs[baseline_key]

    widths = [16, 8, 26, 10]
    rows = [fmt_row(
        ["workload", "blocks", "program sha256 (prefix)", "identical"],
        widths,
    )]
    failures = []
    for name in WORKLOADS:
        expected = baseline[name]
        same = all(runs[key][name] == expected for key in MATRIX)
        rows.append(fmt_row(
            [
                name,
                expected["blocks"],
                expected["program_sha256"][:24],
                f"{len(MATRIX)}/{len(MATRIX)}" if same else "DIVERGED",
            ],
            widths,
        ))
        if not same:
            for key in MATRIX:
                if runs[key][name] != expected:
                    failures.append(
                        f"{name}: seed={key[0]} workers={key[1]} "
                        f"diverges from baseline {baseline_key}"
                    )
    rows.append(
        f"matrix: PYTHONHASHSEED in {list(DEFAULT_HASH_SEEDS)}, "
        "batch workers in [0, 2]"
    )
    report("E17_determinism", rows)
    assert not failures, "\n".join(failures)
