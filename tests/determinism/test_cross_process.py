"""Cross-process reproducibility gate (the PR-2 tentpole).

Allocation output -- assignments, inserted spill code, and simulated
costs -- must be bit-identical regardless of ``PYTHONHASHSEED`` and of
the batch engine's pool size.  Every combination runs in a *fresh
subprocess* so each interpreter gets its own hash salt; fingerprints are
only compared between subprocesses (absolute tile ids depend on
in-process history, so an in-process fingerprint is not comparable to a
subprocess one).

The workload list is the bench set, including the 428-block random
program that originally exposed the hash-order sensitivity.
"""

import json

import pytest

from repro.determinism import (
    DEFAULT_HASH_SEEDS,
    fingerprint_in_subprocess,
    workload_names,
)

WORKLOADS = workload_names()

#: (hash seed, batch pool workers); 0 = the batch engine allocates
#: in-process.  Every run also allocates directly and asserts the batch
#: result equals it, so the matrix spans PYTHONHASHSEED x {in-process,
#: two worker processes}.
MATRIX = [
    (seed, workers)
    for seed in DEFAULT_HASH_SEEDS
    for workers in (0, 2)
]


@pytest.fixture(scope="module")
def fingerprints():
    return {
        (seed, workers): fingerprint_in_subprocess(
            WORKLOADS, seed, batch_workers=workers
        )
        for seed, workers in MATRIX
    }


def test_bench_set_includes_the_428_block_program():
    assert "rand_struct_428" in WORKLOADS


def test_three_distinct_hash_seeds_in_matrix():
    assert len(set(seed for seed, _ in MATRIX)) >= 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bit_identical_across_seeds_and_workers(fingerprints, workload):
    baseline_key = MATRIX[0]
    baseline = fingerprints[baseline_key][workload]
    # Sanity: the fingerprint actually covers program, spills and costs.
    assert set(baseline) >= {"program_sha256", "spilled", "costs"}
    for key, run in fingerprints.items():
        assert run[workload] == baseline, (
            f"{workload}: (seed={key[0]}, workers={key[1]}) diverges from "
            f"(seed={baseline_key[0]}, workers={baseline_key[1]}):\n"
            f"baseline: {json.dumps(baseline, sort_keys=True)}\n"
            f"got:      {json.dumps(run[workload], sort_keys=True)}"
        )
