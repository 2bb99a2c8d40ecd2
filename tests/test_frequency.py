"""Tests for execution-frequency estimation (Prob(b), Prob(e))."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import frequency
from repro.analysis.frequency import (
    LOOP_BACK_PROB,
    estimate_frequencies,
    frequencies_from_profile,
    loop_depth_weights,
)
from repro.ir.builder import FunctionBuilder
from repro.machine.simulator import simulate
from repro.workloads.generators import random_program
from repro.workloads.kernels import all_kernel_workloads, matmul
from repro.workloads.figure1 import figure1

from tests.test_irreducible import irreducible_fn, nested_irreducible_fn


def dense_oracle_frequencies(fn):
    """Reference solve of ``(I - P^T) f = e_start``: the dense matrix of
    the static branch model, Gaussian elimination with partial pivoting,
    pure Python.  Slow (cubic), used only to check the sparse solver."""
    labels = fn.rpo()
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    a = [[float(i == j) for j in range(n)] for i in range(n)]
    for (u, v), p in frequency._branch_probabilities(fn).items():
        if u in index and v in index and u != fn.stop_label:
            a[index[v]][index[u]] -= p * (1.0 - frequency._DAMPING)
    b = [0.0] * n
    b[index[fn.start_label]] = 1.0
    for k in range(n):
        pivot = max(range(k, n), key=lambda r: abs(a[r][k]))
        a[k], a[pivot] = a[pivot], a[k]
        b[k], b[pivot] = b[pivot], b[k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            if factor:
                for c in range(k, n):
                    a[r][c] -= factor * a[k][c]
                b[r] -= factor * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        acc = b[k] - sum(a[k][c] * x[c] for c in range(k + 1, n))
        x[k] = acc / a[k][k]
    return {label: max(x[index[label]], 0.0) for label in labels}


def assert_matches_oracle(fn):
    got = estimate_frequencies(fn).block_freq
    want = dense_oracle_frequencies(fn)
    assert got.keys() == want.keys()
    for label, f in want.items():
        assert abs(got[label] - f) <= 1e-9 * abs(f), (fn.name, label)


class TestSparseSolveMatchesDenseOracle:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_blocks=st.sampled_from([12, 24, 60]),
        break_prob=st.sampled_from([0.0, 0.3]),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_programs(self, seed, max_blocks, break_prob):
        assert_matches_oracle(
            random_program(
                seed, max_blocks=max_blocks, max_depth=4,
                break_prob=break_prob,
            )
        )

    def test_kernel_suite(self):
        for workload in all_kernel_workloads(6):
            assert_matches_oracle(workload.fn)

    @pytest.mark.parametrize(
        "build", [irreducible_fn, nested_irreducible_fn]
    )
    def test_irreducible_cfgs(self, build):
        assert_matches_oracle(build())


class TestStaticEstimates:
    def test_loop_trip_count(self, loop_fn):
        freq = estimate_frequencies(loop_fn)
        expected = 1.0 / (1.0 - LOOP_BACK_PROB)  # 10
        assert freq.block_freq["head"] == pytest.approx(expected)
        assert freq.block_freq["body"] == pytest.approx(expected - 1)
        assert freq.block_freq["entry"] == pytest.approx(1.0)
        assert freq.block_freq[loop_fn.stop_label] == pytest.approx(1.0)

    def test_branch_split(self, diamond_fn):
        freq = estimate_frequencies(diamond_fn)
        assert freq.block_freq["then"] == pytest.approx(0.5)
        assert freq.block_freq["then"] == freq.block_freq["els"]
        assert freq.block_freq["join"] == pytest.approx(1.0)

    def test_single_block_loop_runs_ten_times_its_entry(self):
        b = FunctionBuilder("self_loop", params=["n"])
        b.block("entry")
        b.const("one", 1)
        b.br("body")
        b.block("body")
        b.sub("n", "n", "one")
        b.cbr("n", "body", "done")
        b.block("done")
        b.ret("n")
        freq = estimate_frequencies(b.finish()).block_freq
        assert freq["body"] == pytest.approx(10.0 * freq["entry"], rel=1e-6)
        assert freq["done"] == pytest.approx(freq["entry"], rel=1e-6)

    def test_edge_freq_consistency(self, loop_fn):
        """Flow conservation: block frequency equals incoming edge flow."""
        freq = estimate_frequencies(loop_fn)
        for label in loop_fn.blocks:
            if label == loop_fn.start_label:
                continue
            inflow = sum(
                f for (u, v), f in freq.edge_freq.items() if v == label
            )
            assert inflow == pytest.approx(freq.block_freq[label], rel=1e-6)

    def test_nested_loops_multiply(self):
        freq = estimate_frequencies(matmul())
        assert freq.block_freq["kbody"] > 100  # three nested trip-10 loops
        assert freq.block_freq["kbody"] > freq.block_freq["jh"]
        assert freq.block_freq["jh"] > freq.block_freq["ih"]

    def test_two_sequential_loops(self):
        freq = estimate_frequencies(figure1())
        assert freq.block_freq["B2"] == pytest.approx(freq.block_freq["B3"])
        assert freq.block_freq["B4"] == pytest.approx(1.0)


class TestProfileFrequencies:
    def test_profile_matches_run(self, loop_fn):
        result = simulate(loop_fn, args={"n": 7})
        freq = frequencies_from_profile(loop_fn, result.profile)
        assert freq.block_freq["body"] == pytest.approx(7.0)
        assert freq.block_freq["head"] == pytest.approx(8.0)
        assert freq.source == "profile"

    def test_untaken_edges_present_as_zero(self, diamond_fn):
        result = simulate(diamond_fn, args={"x": 1})  # takes 'then'
        freq = frequencies_from_profile(diamond_fn, result.profile)
        assert freq.edge_freq[("entry", "els")] == 0.0
        assert freq.edge_freq[("entry", "then")] == pytest.approx(1.0)

    def test_normalized_by_entries(self, loop_fn):
        result = simulate(loop_fn, args={"n": 3})
        merged = result.profile.merge(result.profile)
        freq = frequencies_from_profile(loop_fn, merged)
        # Two identical runs: per-entry frequencies unchanged.
        assert freq.block_freq["body"] == pytest.approx(3.0)


class TestLoopDepthWeights:
    def test_powers_of_base(self):
        weights = loop_depth_weights(matmul(), base=10.0)
        assert weights["kbody"] == pytest.approx(1000.0)
        assert weights["jh"] == pytest.approx(100.0)
        assert weights["ih"] == pytest.approx(10.0)
        assert weights["entry"] == pytest.approx(1.0)
