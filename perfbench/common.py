"""Shared pieces of the benchmark: statistics, spans, output checks, host facts.

Nothing here imports ``repro`` at module level except through the
functions that need it, so ``run.py`` can print its usage even when the
package is missing -- and then fail, as it must, before printing a result.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

#: BLAS threading variables.  The benchmark never sets them (users do not),
#: it only records what the environment had.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile (``q`` in [0, 1]) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median, the way the stability
    check in ``report.py`` judges a metric over several runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


#: Keys of the probe's table: fixed pseudo-random integers.
_rng = random.Random(1)
_PROBE_KEYS = [_rng.randrange(1 << 30) for _ in range(1000)]
del _rng

#: What a probe reads on the reference host -- a 2-vCPU KVM guest on an
#: Intel Xeon, CPython 3.11, when no other guest loads its cores (the 5th
#: percentile of its probes over four minutes).  Host-adjusted times are
#: expressed at this speed.
PROBE_REFERENCE_MS = 0.40


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe_once() -> float:
    """Build a table of 1000 small objects, sort its keys through a key
    function and walk a third of them: allocation, hashing, calls and
    pointer chasing, like the allocator (about 0.4 ms)."""
    start = time.perf_counter()
    table = {key: _Pair(key, i) for i, key in enumerate(_PROBE_KEYS)}
    order = sorted(table, key=lambda key: table[key].b ^ key)
    acc = 0
    for key in order[::3]:
        acc += table[key].a
    return (time.perf_counter() - start) * 1000.0


def _probe() -> float:
    return statistics.median(_probe_once() for _ in range(3))


class HostSpeed:
    """How fast the host runs, probed between the benchmark's timed calls.

    Other guests share this host's cores, and its speed moves by up to
    1.5x over seconds to minutes.  Over 25-second windows of one process
    looping over the ``large_fn`` functions, the mean allocation time spread
    11-22% (interquartile range over median, two four-minute traces).  Each
    CPU drifts on its own: a loop's speeds on the two CPUs of a 2-vCPU
    guest correlated at 0.13.

    A probe -- the median of three runs of :func:`_probe_once` -- reads the
    current speed.  Every timed value the benchmark gates is multiplied by
    :data:`PROBE_REFERENCE_MS` over the mean of the probes taken around it:
    a *host-adjusted* time, what the call would have taken at the reference
    speed.  On the same traces this cut the spread to 2%; a plain
    arithmetic loop as the probe cut it only to 4-6%, because the slow
    spells slow the allocator's object-heavy code more than arithmetic.  A
    program change moves the timed call and not the probe, so it shows in
    full; the raw values are printed next to the adjusted ones.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self, all_cpus: bool = False) -> float:
        """Probe the CPU this process runs on; with *all_cpus*, visit every
        CPU it may run on in turn and take the mean -- for work spread over
        several processes, and only while that work is idle, or the probe
        would time the benchmark's own load."""
        if all_cpus:
            allowed = os.sched_getaffinity(0)
            per_cpu = []
            try:
                for cpu in sorted(allowed):
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(_probe())
            finally:
                os.sched_setaffinity(0, allowed)
            ms = statistics.fmean(per_cpu)
        else:
            ms = _probe()
        self.samples.append(ms)
        return ms

    @staticmethod
    def scale(*probes: float) -> float:
        """Factor from a time measured between *probes* to a host-adjusted
        time (divide a rate by it)."""
        return PROBE_REFERENCE_MS / statistics.fmean(probes)

    def factor(self) -> float:
        """:meth:`scale` over every probe taken so far."""
        return self.scale(*self.samples)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples)


def blas_setting() -> str:
    """The BLAS thread settings of the environment, e.g.
    ``OPENBLAS_NUM_THREADS=unset,...`` plus the CPU count."""
    parts = [f"{name}={os.environ.get(name, 'unset')}" for name in BLAS_ENV]
    parts.append(f"cpus={os.cpu_count()}")
    return ",".join(parts)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(hashes: Sequence[str]) -> str:
    """sha256 over allocated-program hashes, in workload order."""
    digest = hashlib.sha256()
    for h in hashes:
        digest.update(h.encode())
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    trace_id: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Spans:
    """In-memory span recorder for the traced run.

    Spans are recorded around calls into a layer; all spans of one function
    or request share ``trace_id``.  Disabled (the untraced run), ``span``
    records nothing.  Spans are written out once, by :meth:`dump`.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, trace_id, parent, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus the time its child
        spans cover (children never overlap: one thread records them)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, List[float]] = {}
        for i, span in enumerate(self.spans):
            out.setdefault(span.name, []).append(
                span.end - span.start - child_time[i]
            )
        return out

    def dump(self, path: str) -> None:
        """Write the spans as Chrome trace events (viewable in Perfetto)."""
        if not self.spans:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = self.spans[0].start
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - origin) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "args": {"id": s.trace_id, "parent": s.parent},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checked:
    """The benchmark's own verdict on one allocated program."""

    ok: bool
    sha256: str
    spill_refs: int
    moves: int
    instrs: int
    detail: str = ""


def _canonical_arrays(arrays) -> Dict[str, Dict[int, object]]:
    return {
        name: {i: v for i, v in contents.items() if v != 0}
        for name, contents in arrays.items()
    }


def check_allocation(workload, text: str) -> Checked:
    """Simulate the unallocated, pre-renaming program and the allocated
    program *text* on the workload's inputs; compare return values and
    array state.

    Parameters map by position: allocation keeps their order but may
    rename them to registers.
    """
    from repro.ir.parser import parse_function
    from repro.machine.simulator import simulate

    allocated = parse_function(text)
    digest = sha256_text(text)
    instrs = sum(len(block.instrs) for block in allocated)
    reference = simulate(workload.fn, args=workload.args, arrays=workload.arrays)
    args = {
        target: workload.args[source]
        for target, source in zip(allocated.params, workload.fn.params)
    }
    try:
        result = simulate(allocated, args=args, arrays=workload.arrays)
    except Exception as exc:  # noqa: BLE001 -- a crash is a wrong output
        return Checked(False, digest, 0, 0, instrs, f"simulation: {exc}")
    detail = ""
    if reference.returned != result.returned:
        detail = f"returned {result.returned!r} != {reference.returned!r}"
    elif _canonical_arrays(reference.arrays) != _canonical_arrays(result.arrays):
        detail = "array state differs"
    return Checked(
        ok=not detail,
        sha256=digest,
        spill_refs=result.spill_memory_refs,
        moves=result.register_moves,
        instrs=instrs,
        detail=detail,
    )


# ----------------------------------------------------------------------
# one run's bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Run:
    """Everything one invocation measures, checks and prints."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    digest_hashes: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    spans: Spans = None  # type: ignore[assignment]
    host: HostSpeed = field(default_factory=HostSpeed)

    def __post_init__(self) -> None:
        if self.spans is None:
            self.spans = Spans(self.trace)

    def put(self, name: str, value: float, unit: str, samples: int,
            raw: Optional[float] = None) -> None:
        """Record a metric; *raw* is the unadjusted value of a host-adjusted
        one (see :class:`HostSpeed`), printed next to it."""
        self.metrics[name] = Metric(value, unit, samples)
        if raw is not None:
            self.raw[name] = raw

    def fail(self, what: str, wrong: bool = False) -> None:
        """Count one failed operation; *wrong* marks an incorrect output
        (as opposed to an error, a refusal or a degraded result)."""
        self.failed += 1
        if wrong:
            self.wrong.append(what)
        elif len(self.errors) < 20:
            self.errors.append(what)

    def problem(self, what: str) -> None:
        """A failed check that is not one operation's (a cross-check)."""
        self.wrong.append(what)

    @property
    def correct(self) -> bool:
        return not self.wrong


class CheckCache:
    """Checks each distinct (input, output) pair once.

    Allocation is deterministic, so a function allocated again must yield
    the same program: a repeat is checked by hash equality with the first
    output for that input instead of a second simulation.
    """

    def __init__(self) -> None:
        self._seen: Dict[Tuple[str, str], Checked] = {}
        self._first: Dict[str, str] = {}

    def check(self, key: str, workload, text: str) -> Checked:
        sha = sha256_text(text)
        first = self._first.setdefault(key, sha)
        checked = self._seen.get((key, sha))
        if checked is None:
            checked = check_allocation(workload, text)
            self._seen[(key, sha)] = checked
        if first != sha:
            return replace(
                checked, ok=False,
                detail="output differs from an earlier allocation of this input",
            )
        return checked
