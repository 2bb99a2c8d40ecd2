"""The batch allocation engine (multi-function driver).

One :class:`BatchEngine` owns a persistent ``ProcessPoolExecutor`` and an
:class:`~repro.batch.cache.AllocationCache` and pushes whole *modules*
(lists of :class:`~repro.pipeline.Workload`) through allocation:

1. every function is fingerprinted (canonical-program sha256) and looked
   up in the cache under ``cache_key(fingerprint, invalidation, inputs)``
   -- the inputs digest keeps records with simulated (input-dependent)
   ``costs``/``returned`` from answering for different inputs;
2. misses are **deduplicated by cache key** (identical functions *with
   identical simulator inputs* are computed once) and run through one
   task loop (:meth:`BatchEngine._run_tasks`) on one of two executors:
   the process pool, or -- when ``batch_workers == 0`` -- an in-process
   executor that calls the same :func:`~repro.batch.worker.run_task`.
   Either way the *canonical printed form* is what gets allocated -- the
   same text the fingerprint hashes -- so a record is a pure function of
   its content address (in-memory block order, which canonical text does
   not capture, can otherwise steer tie-breaks);
3. results are merged by **submission index**, never completion order,
   and inserted into the cache in submission order -- so the result list,
   the cache's LRU state, and the trace stream are all deterministic
   functions of the input module (completion order only shifts wall
   times).

The parallelism axis is deliberately *across functions and processes*:
each worker allocates sequentially (one function at a time, GIL-free
relative to its siblings), which is where the real multi-core win lives
-- threads inside one function cannot beat the sequential tile walk,
because the GIL serializes pure-Python tile coloring.

Determinism: workers inherit ``PYTHONHASHSEED`` (set in ``os.environ``
before the pool starts, so both fork and spawn children see it), and the
allocation itself is bit-deterministic across hash seeds and processes
(PR-2 guarantee, enforced by ``repro.determinism check`` -- which covers
this engine via its ``--batch`` mode), so cached and freshly-computed
records are interchangeable bit-for-bit.

Fault tolerance (see :mod:`repro.errors` for the taxonomy):

* **Error isolation** -- one function failing never kills the module: it
  becomes a :class:`BatchResult` with ``record=None`` and a structured
  ``error`` (collected in :attr:`ModuleAllocation.failures`), unless
  ``on_error="fail"`` (strict mode), which re-raises as
  :class:`~repro.errors.BatchFunctionError`.
* **Deterministic retries** -- transient failures (crashed worker, hung
  task, memory pressure) are retried up to ``max_retries`` times with
  exponential backoff ``retry_backoff_s * 2**attempt``.  Records are pure
  functions of their content address, so a faulted-then-retried run is
  bit-identical to a fault-free run; retries only shift wall times and
  counters.
* **Pool recovery** -- a ``BrokenProcessPool`` (worker died) or a
  per-task timeout (worker hung) tears the pool down -- force-terminating
  stuck workers -- restarts it, and resubmits only the still-unfinished
  misses.  Cache state and submission-order merge semantics are
  unaffected because results are keyed by submission index throughout.
* **Degradation ladder** -- with ``on_error="degrade"`` (the default), a
  function whose hierarchical allocation fails permanently is retried
  with the Chaitin comparison allocator, then the naive spill-everywhere
  baseline (``worker.DEGRADATION_LADDER``); the result is marked
  ``degraded`` with its ``fallback_allocator`` and is **never** written
  to the cache, whose keys promise hierarchical results.

All of it is driven in tests and CI by the deterministic fault-injection
harness (:mod:`repro.batch.faultinject`, ``REPRO_FAULT_PLAN``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch.cache import AllocationCache
from repro.batch.serialize import (
    AllocationRecord,
    UncacheableConfigError,
    cache_key,
    inputs_digest,
    invalidation_key,
    text_fingerprint,
)
from repro.batch.worker import (
    DEGRADATION_LADDER,
    compute_record,
    run_task,
    worker_init,
    worker_state,
)
from repro.core import HierarchicalConfig
from repro.core.budget import BudgetLimits, estimate_cost
from repro.core.config import BatchConfig
from repro.errors import (
    PERMANENT,
    TRANSIENT,
    BatchFunctionError,
    TaskError,
    classify_exception,
    task_error_from_exception,
)
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.target import Machine
from repro.perf.timers import StageTimers
from repro.trace.events import (
    Admitted,
    BatchTask,
    BudgetExceeded,
    CacheHit,
    CacheMiss,
    Degraded,
    PoolRestarted,
    Rejected,
    TaskFailed,
    TaskRetried,
)
from repro.trace.tracer import NULL_TRACER, NullTracer


@dataclass
class BatchResult:
    """One function's outcome in submission order.

    ``record`` is ``None`` exactly when the function finally failed
    (``error`` then holds the structured failure).  ``degraded`` marks a
    degradation-ladder result: ``record`` was produced by
    ``fallback_allocator`` instead of the hierarchical allocator, and
    ``error`` still describes the primary failure that forced the
    fallback.  ``attempts`` counts tries of the primary allocator.
    """

    name: str
    fingerprint: str
    record: Optional[AllocationRecord]
    cached: bool
    source: str  # "memory" | "disk" | "computed" | "failed"
    worker: str  # "worker-<i>" | "inline" | "cache"
    duration: float
    error: Optional[TaskError] = None
    degraded: bool = False
    fallback_allocator: Optional[str] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class BatchStats:
    """Aggregate accounting for one engine (cumulative across modules)."""

    functions: int = 0
    computed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    failures: int = 0
    retries: int = 0
    degraded: int = 0
    pool_restarts: int = 0
    quarantined: int = 0
    #: resource-governance counters: functions refused by admission
    #: control (``BatchConfig.admission_limit``) and results that landed
    #: on the degradation ladder because of a resource limit (error
    #: class ``admission``/``budget``/``deadline``) rather than an
    #: allocator defect.
    rejected: int = 0
    degraded_by_budget: int = 0
    #: per-tile memoization counters (``BatchConfig.tile_cache``),
    #: summed across functions and worker processes: phase-1 summaries
    #: reused / recomputed, and maximal clean subtrees reused verbatim.
    tile_hits: int = 0
    tile_misses: int = 0
    subtrees_reused: int = 0
    wall_s: float = 0.0
    stage_times: Dict[str, float] = field(default_factory=dict)

    @property
    def functions_per_sec(self) -> float:
        return self.functions / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "functions": self.functions,
            "computed": self.computed,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "failures": self.failures,
            "retries": self.retries,
            "degraded": self.degraded,
            "pool_restarts": self.pool_restarts,
            "quarantined": self.quarantined,
            "rejected": self.rejected,
            "degraded_by_budget": self.degraded_by_budget,
            "tile_hits": self.tile_hits,
            "tile_misses": self.tile_misses,
            "subtrees_reused": self.subtrees_reused,
            "wall_s": round(self.wall_s, 4),
            "functions_per_sec": round(self.functions_per_sec, 2),
        }


@dataclass
class ModuleAllocation:
    """What :func:`repro.pipeline.allocate_module` returns: per-function
    results in submission order plus the engine's aggregate stats."""

    results: List[BatchResult]
    stats: BatchStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index) -> BatchResult:
        return self.results[index]

    @property
    def failures(self) -> List[BatchResult]:
        """Results that finally failed (``record is None``), in order."""
        return [r for r in self.results if r.record is None]

    @property
    def degraded_results(self) -> List[BatchResult]:
        """Results produced by the degradation ladder, in order."""
        return [r for r in self.results if r.degraded]

    @property
    def ok(self) -> bool:
        """True when every function produced a record (possibly degraded)."""
        return not self.failures


@dataclass
class _Task:
    """One deduplicated cache miss in flight.

    ``index`` is the task's position in the deduplicated submission order
    -- the coordinate the fault-injection plan targets -- and ``attempt``
    the 0-based try counter the retry machinery advances.
    """

    index: int
    key: str
    name: str
    fingerprint: str
    text: str
    workload: object
    attempt: int = 0


@dataclass
class _TaskOutcome:
    """Terminal state of one :class:`_Task` after retries/degradation."""

    record: Optional[AllocationRecord]
    timing: Dict[str, object] = field(default_factory=dict)
    error: Optional[TaskError] = None
    degraded: bool = False
    fallback_allocator: Optional[str] = None
    attempts: int = 1


def _src_path() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _task_tuple(task: _Task) -> Tuple:
    workload = task.workload
    return (
        task.index, task.name, task.fingerprint, task.text,
        dict(workload.args),
        {k: list(v) for k, v in workload.arrays.items()},
        task.attempt,
    )


class _InlineExecutor:
    """The ``batch_workers == 0`` executor: ``submit`` runs the task at
    once, in-process, against the engine's own :func:`worker_state`, and
    returns an already-completed future.  Such a future never times out
    and never raises ``BrokenExecutor``, so the pool-recovery branches of
    :meth:`BatchEngine._run_tasks` never fire inline."""

    def __init__(self, state: Dict[str, object]) -> None:
        self.state = state

    def submit(self, fn, task: Tuple) -> Future:
        future: Future = Future()
        future.set_result(fn(task, self.state))
        return future


class BatchEngine:
    """Process-parallel multi-function allocator with a content-addressed
    cache.  Use as a context manager (the pool is a held resource)::

        with BatchEngine(batch=BatchConfig(batch_workers=4)) as engine:
            module = engine.allocate_module(workloads)
    """

    def __init__(
        self,
        config: Optional[HierarchicalConfig] = None,
        machine: Optional[Machine] = None,
        batch: Optional[BatchConfig] = None,
        tracer: Optional[NullTracer] = None,
    ) -> None:
        self.batch = batch or BatchConfig()
        self.config = config or HierarchicalConfig()
        self.machine = machine or Machine.simple(self.batch.registers)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = BatchStats()
        self.timers = StageTimers()
        # Per-allocation resource governor built from the batch knobs;
        # ``None`` when both limits are off, preserving the allocator's
        # zero-cost unbudgeted fast path.
        budget_limits: Optional[BudgetLimits] = None
        if (
            self.batch.max_fuel is not None
            or self.batch.deadline_s is not None
        ):
            budget_limits = BudgetLimits(
                max_fuel=self.batch.max_fuel,
                deadline_s=self.batch.deadline_s,
            )
        #: Failures swallowed while tearing down the pool, newest last.
        #: Teardown must never raise (close() runs on the error path and
        #: from __exit__), but the failures are not silent either -- each
        #: one is classified into the structured taxonomy and kept here
        #: for inspection.
        self.teardown_errors: List[TaskError] = []

        if self.batch.cache_policy == "off":
            self.cache: Optional[AllocationCache] = None
        else:
            self.cache = AllocationCache(
                cache_dir=(
                    self.batch.cache_dir
                    if self.batch.cache_policy == "disk"
                    else None
                ),
            )
        try:
            self._invalidation = invalidation_key(self.config, self.machine)
        except UncacheableConfigError:
            # Profile-guided configs can't be content-addressed; run with
            # the cache disabled rather than risk stale hits.
            self.cache = None
            self._invalidation = ""
        #: what every task allocates under: the arguments of
        #: :func:`worker_state`, minus ``in_worker``.  The per-tile
        #: memoization store is disabled alongside the result cache for
        #: uncacheable configs: tile fingerprints reuse the same
        #: invalidation key.
        self._state_args = (
            self.config,
            self.machine,
            self.batch.simulate,
            bool(self.batch.tile_cache and self._invalidation),
            self.batch.tile_cache_entries,
            budget_limits,
        )
        self._pool: Optional[ProcessPoolExecutor] = None
        #: inline executor with the coordinator's own state (and tile
        #: store); the worker-global state of a pool process is never
        #: written here, so several engines can share one process.
        self._inline: Optional[_InlineExecutor] = None
        if self.batch.batch_workers == 0:
            self._inline = _InlineExecutor(
                worker_state(*self._state_args, in_worker=False)
            )
        # Deliberately wall-clock: trace rows subtract it from worker
        # ``start`` stamps, which cross process boundaries.  All *interval*
        # math (durations, BatchStats.wall_s) uses time.monotonic() so a
        # clock step (NTP, DST, manual set) can never skew or negate it.
        self._epoch = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "BatchEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        # Runs on exceptions too -- the executor must never outlive the
        # engine, even when allocate_module raised mid-flight.
        self.close()

    def start(self) -> None:
        """Spin up the persistent worker pool (no-op when workers == 0 or
        the pool already exists)."""
        if self.batch.batch_workers > 0 and self._pool is None:
            # Propagated into children regardless of start method; the
            # fingerprints they produce are hash-seed-independent anyway
            # (the determinism gate proves it), this keeps the whole
            # environment reproducible for grandchildren too.
            hash_seed = os.environ.get("PYTHONHASHSEED")
            self._pool = ProcessPoolExecutor(
                max_workers=self.batch.batch_workers,
                initializer=worker_init,
                initargs=(_src_path(), hash_seed, *self._state_args),
            )

    def close(self) -> None:
        """Release the pool.  Idempotent, and safe on a broken pool or
        one with hung workers: the shutdown never waits on a worker that
        will not come back -- leftover processes are terminated."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        # Teardown never raises, but nothing is swallowed silently: the
        # failure modes of shutdown/terminate/join are OS- and executor-
        # level (dead process, broken pipe, shut-down executor), so the
        # catches are narrowed to exactly those and each failure is
        # classified and recorded in ``teardown_errors``.
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError) as exc:
            self._record_teardown_error(exc)
        for process in processes:
            try:
                if process.is_alive():
                    process.terminate()
            except (OSError, ValueError, AttributeError) as exc:
                self._record_teardown_error(exc)
        for process in processes:
            try:
                process.join(timeout=5)
            except (OSError, RuntimeError, ValueError, AssertionError) as exc:
                self._record_teardown_error(exc)

    def _record_teardown_error(self, exc: BaseException) -> None:
        self.teardown_errors.append(task_error_from_exception(exc))

    def _merge_tile_counters(self, counters) -> None:
        """Fold one task's per-tile reuse counters
        (``timing["tile_cache"]``) into the stats."""
        if not counters:
            return
        self.stats.tile_hits += int(counters.get("tile_hits", 0))
        self.stats.tile_misses += int(counters.get("tile_misses", 0))
        self.stats.subtrees_reused += int(
            counters.get("subtrees_reused", 0)
        )

    def _restart_pool(self, resubmitted: int) -> None:
        """Tear down a broken/hung pool, start a fresh one, and account
        for it; *resubmitted* is how many in-flight misses will be
        re-queued onto the new pool."""
        self.close()
        self.start()
        self.stats.pool_restarts += 1
        if self.tracer.enabled:
            self.tracer.emit(PoolRestarted(
                restarts=self.stats.pool_restarts,
                resubmitted=resubmitted,
            ))

    # ------------------------------------------------------------------
    # observation hooks (used by the service layer)
    # ------------------------------------------------------------------
    def entry_for(self, workload) -> Tuple[str, str, str, str]:
        """``(name, canonical_text, fingerprint, cache_key)`` for one
        workload -- exactly what :meth:`allocate_module` computes before
        its cache lookup.

        This is the hook the allocation service builds its cross-request
        coalescing on: two workloads share an in-flight computation if
        and only if their cache keys are equal, and key parity with the
        engine is guaranteed because both call this one method.
        """
        name = workload.label()
        text = format_function(workload.fn)
        fingerprint = text_fingerprint(text)
        inputs = (
            inputs_digest(workload.args, workload.arrays)
            if self.batch.simulate
            else ""
        )
        return name, text, fingerprint, cache_key(
            fingerprint, self._invalidation, inputs
        )

    def pool_health(self) -> Dict[str, object]:
        """Liveness view of the worker pool (for ``/healthz``).

        ``configured`` is ``batch_workers``; ``running`` says whether a
        pool currently exists (it is started lazily, so ``False`` is
        healthy before the first pooled miss); ``alive`` counts worker
        processes still running; ``broken`` reflects the executor's own
        broken flag.  ``restarts`` mirrors ``stats.pool_restarts``.
        """
        pool = self._pool
        health: Dict[str, object] = {
            "configured": self.batch.batch_workers,
            "running": pool is not None,
            "alive": 0,
            "broken": False,
            "restarts": self.stats.pool_restarts,
        }
        if pool is not None:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            health["alive"] = sum(1 for p in processes if p.is_alive())
            health["broken"] = bool(getattr(pool, "_broken", False))
        return health

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate_module(self, workloads: Sequence) -> ModuleAllocation:
        """Allocate every workload, returning results in submission order.

        Failures are isolated per function according to
        ``batch.on_error`` (see :class:`~repro.core.config.BatchConfig`);
        only strict mode (``"fail"``) lets an exception escape.
        """
        tracer = self.tracer
        t0 = time.time()  # wall: trace rows only (offset from _epoch)
        t0_mono = time.monotonic()

        # 1. fingerprint + cache lookup, in submission order.
        entries: List[Tuple[str, str, str, object]] = []
        results: List[Optional[BatchResult]] = [None] * len(workloads)
        miss_groups: Dict[str, List[int]] = {}
        #: cache keys refused by admission control -> (cost, limit).
        rejected_keys: Dict[str, Tuple[int, int]] = {}
        admission_limit = self.batch.admission_limit
        for index, workload in enumerate(workloads):
            # Records carry simulated costs/returned when inputs are
            # present, so the key must distinguish inputs -- for the
            # cache lookup *and* for the miss dedup below, which assumes
            # one key == one (function, inputs) computation.
            name, text, fingerprint, key = self.entry_for(workload)
            entries.append((name, text, fingerprint, workload))
            if admission_limit is not None:
                # Admission is decided *before* the cache is consulted,
                # so the admit/reject stream is a pure function of the
                # input module, never of cache state.
                cost = estimate_cost(workload.fn)
                if cost > admission_limit:
                    self.stats.rejected += 1
                    rejected_keys[key] = (cost, admission_limit)
                    if tracer.enabled:
                        tracer.emit(Rejected(
                            function=name, fingerprint=fingerprint,
                            cost=cost, limit=admission_limit,
                        ))
                    miss_groups.setdefault(key, []).append(index)
                    continue
                if tracer.enabled:
                    tracer.emit(Admitted(
                        function=name, fingerprint=fingerprint,
                        cost=cost, limit=admission_limit,
                    ))
            record = None
            cached_source = None
            if self.cache is not None:
                cached_source = self.cache.source_of(key)
                if cached_source is not None:
                    # May still return None for a torn disk entry (the
                    # get() then counts the miss itself).
                    record = self.cache.get(key)
            if record is not None:
                if tracer.enabled:
                    tracer.emit(CacheHit(
                        function=name, fingerprint=fingerprint,
                        source=cached_source,
                    ))
                results[index] = BatchResult(
                    name=name, fingerprint=fingerprint, record=record,
                    cached=True, source=cached_source, worker="cache",
                    duration=0.0,
                )
            else:
                if self.cache is not None and cached_source is None:
                    self.cache.stats.misses += 1
                if tracer.enabled:
                    tracer.emit(CacheMiss(
                        function=name, fingerprint=fingerprint,
                    ))
                miss_groups.setdefault(key, []).append(index)

        # 2. compute misses -- one task per distinct key, submission
        # order; faults are isolated, retried, and degraded per task.
        ordered_keys = list(miss_groups)
        tasks: List[_Task] = []
        for task_index, key in enumerate(ordered_keys):
            first = miss_groups[key][0]
            name, text, fingerprint, workload = entries[first]
            tasks.append(_Task(
                index=task_index, key=key, name=name,
                fingerprint=fingerprint, text=text, workload=workload,
            ))
        computed: Dict[str, _TaskOutcome] = {}
        if tasks:
            # Rejected tasks never reach the allocator: they get a
            # terminal permanent "admission" outcome directly and flow
            # through the same degradation/merge machinery as any other
            # permanent failure.
            run_tasks: List[_Task] = []
            for task in tasks:
                rejection = rejected_keys.get(task.key)
                if rejection is None:
                    run_tasks.append(task)
                    continue
                cost, limit = rejection
                computed[task.key] = _TaskOutcome(
                    record=None,
                    error=TaskError(
                        error_class="admission",
                        message=(
                            f"estimated cost {cost} exceeds admission "
                            f"limit {limit}"
                        ),
                        permanence=PERMANENT,
                        attempts=0,
                    ),
                    attempts=0,
                )
            if run_tasks:
                self.start()
                self._run_tasks(run_tasks, computed)
            self._apply_degradation(tasks, computed)
            if self.batch.on_error == "fail":
                for task in tasks:
                    outcome = computed[task.key]
                    if outcome.record is None:
                        raise BatchFunctionError(task.name, outcome.error)

        # 3. merge + cache insert, in submission order.
        pids: Dict[int, int] = {}
        own_pid = os.getpid()
        for key in ordered_keys:
            outcome = computed[key]
            timing = outcome.timing
            pid = int(timing.get("pid", own_pid))
            if self._pool is not None and pid != own_pid:
                worker = f"worker-{pids.setdefault(pid, len(pids))}"
            else:
                worker = "inline"
            duration = float(timing.get("duration", 0.0))
            # Degraded records never enter the cache: the key promises a
            # *hierarchical* allocation of this content address, and a
            # fallback result must not answer for one.
            if (
                self.cache is not None
                and outcome.record is not None
                and not outcome.degraded
            ):
                self.cache.put(key, outcome.record)
            for index in miss_groups[key]:
                name, _, fingerprint, _ = entries[index]
                results[index] = BatchResult(
                    name=name, fingerprint=fingerprint,
                    record=outcome.record,
                    cached=False,
                    source="computed" if outcome.record is not None
                    else "failed",
                    worker=worker, duration=duration,
                    error=outcome.error,
                    degraded=outcome.degraded,
                    fallback_allocator=outcome.fallback_allocator,
                    attempts=outcome.attempts,
                )
            if outcome.record is None:
                self.stats.failures += len(miss_groups[key])
            if outcome.degraded:
                self.stats.degraded += len(miss_groups[key])
                if outcome.error is not None and outcome.error.error_class in (
                    "admission", "budget", "deadline"
                ):
                    self.stats.degraded_by_budget += len(miss_groups[key])
            if tracer.enabled:
                first_name, _, first_fp, _ = entries[miss_groups[key][0]]
                tracer.emit(BatchTask(
                    function=first_name, fingerprint=first_fp,
                    worker=worker,
                    start=float(timing.get("start", t0)) - self._epoch,
                    duration=duration, cached=False,
                ))
        if tracer.enabled:
            for result in results:
                if result is not None and result.cached:
                    tracer.emit(BatchTask(
                        function=result.name, fingerprint=result.fingerprint,
                        worker="cache", start=t0 - self._epoch,
                        duration=0.0, cached=True,
                    ))

        wall = time.monotonic() - t0_mono
        done: List[BatchResult] = [r for r in results if r is not None]
        assert len(done) == len(workloads)
        self.stats.functions += len(done)
        self.stats.computed += len(ordered_keys)
        self.stats.cache_hits += sum(1 for r in done if r.cached)
        self.stats.cache_misses += len(workloads) - sum(
            1 for r in done if r.cached
        )
        if self.cache is not None:
            self.stats.evictions = self.cache.stats.evictions
            self.stats.disk_hits = self.cache.stats.disk_hits
            self.stats.quarantined = self.cache.stats.quarantined
        self.stats.wall_s += wall
        self.stats.stage_times = self.timers.as_dict()
        return ModuleAllocation(results=done, stats=self.stats)

    # ------------------------------------------------------------------
    # fault-handling compute paths
    # ------------------------------------------------------------------
    def _handle_failure(
        self,
        task: _Task,
        error_class: str,
        permanence: str,
        message: str,
        outcomes: Dict[str, _TaskOutcome],
        retry_queue: List[_Task],
        timing: Optional[Dict[str, object]] = None,
        budget_detail: Optional[Dict[str, object]] = None,
    ) -> None:
        """Route one failed attempt: bounded deterministic retry for
        transient failures, terminal :class:`_TaskOutcome` otherwise."""
        if self.tracer.enabled:
            self.tracer.emit(TaskFailed(
                function=task.name, fingerprint=task.fingerprint,
                error_class=error_class, permanence=permanence,
                attempt=task.attempt, message=message,
            ))
            if budget_detail:
                self.tracer.emit(BudgetExceeded(
                    function=task.name, fingerprint=task.fingerprint,
                    resource=str(budget_detail.get("resource", "fuel")),
                    spent=float(budget_detail.get("spent", 0.0)),
                    limit=float(budget_detail.get("limit", 0.0)),
                ))
        if permanence == TRANSIENT and task.attempt < self.batch.max_retries:
            backoff = self.batch.retry_backoff_s * (2 ** task.attempt)
            self.stats.retries += 1
            if self.tracer.enabled:
                self.tracer.emit(TaskRetried(
                    function=task.name, fingerprint=task.fingerprint,
                    attempt=task.attempt + 1, backoff_s=backoff,
                ))
            if backoff > 0:
                time.sleep(backoff)
            task.attempt += 1
            retry_queue.append(task)
            return
        outcomes[task.key] = _TaskOutcome(
            record=None,
            timing=timing or {},
            error=TaskError(
                error_class=error_class, message=message,
                permanence=permanence, attempts=task.attempt + 1,
            ),
            attempts=task.attempt + 1,
        )

    def _submit(self, tasks: List[_Task]) -> List[Tuple[_Task, Future]]:
        executor = self._pool if self._pool is not None else self._inline
        return [
            (task, executor.submit(run_task, _task_tuple(task)))
            for task in tasks
        ]

    def _run_tasks(
        self, tasks: List[_Task], outcomes: Dict[str, _TaskOutcome]
    ) -> None:
        """Run every miss through :func:`~repro.batch.worker.run_task`
        on the pool or the inline executor, surviving worker loss.

        Futures are collected in submission order (never completion
        order).  A ``BrokenProcessPool`` or per-task timeout marks the
        round for a pool restart; only still-unfinished tasks are
        resubmitted, so the cache/merge semantics downstream see exactly
        one terminal outcome per key regardless of faults.  Inline
        futures are already complete, so neither fires there; inline
        tasks cannot be preempted and ignore ``task_timeout_s``.
        """
        pending = list(tasks)
        while pending:
            try:
                submitted = self._submit(pending)
            except BrokenExecutor:
                # The pool broke between rounds (e.g. an idle worker
                # died); rebuild it and submit again.  A second failure
                # propagates: the pool cannot even start.
                self._restart_pool(resubmitted=len(pending))
                submitted = self._submit(pending)
            retry_queue: List[_Task] = []
            restart_needed = False
            for task, future in submitted:
                try:
                    _, payload, timing = future.result(
                        timeout=self.batch.task_timeout_s
                    )
                except FuturesTimeout:
                    # The worker is stuck; it can only be reclaimed by
                    # restarting the pool.
                    future.cancel()
                    restart_needed = True
                    self._handle_failure(
                        task, "timeout", TRANSIENT,
                        f"task exceeded {self.batch.task_timeout_s}s",
                        outcomes, retry_queue,
                    )
                except BrokenExecutor as exc:
                    restart_needed = True
                    self._handle_failure(
                        task, "pool", TRANSIENT,
                        str(exc) or "worker process died",
                        outcomes, retry_queue,
                    )
                else:
                    if payload["ok"]:
                        outcomes[task.key] = _TaskOutcome(
                            record=payload["record"],
                            timing=timing, attempts=task.attempt + 1,
                        )
                        self.timers.merge(timing["stage_times"])
                        self._merge_tile_counters(timing.get("tile_cache"))
                    else:
                        self._handle_failure(
                            task,
                            payload["error_class"],
                            payload["permanence"],
                            payload["message"],
                            outcomes, retry_queue, timing=timing,
                            budget_detail=payload.get("budget"),
                        )
            if restart_needed:
                self._restart_pool(resubmitted=len(retry_queue))
            pending = retry_queue

    def _apply_degradation(
        self, tasks: List[_Task], outcomes: Dict[str, _TaskOutcome]
    ) -> None:
        """Walk failed tasks down the degradation ladder (coordinator-
        side, in submission order; no-op unless ``on_error="degrade"``).

        The ladder is deliberately fault-free territory: the injection
        plan targets primary attempts only, mirroring reality -- the
        fallback is a *different computation*, not a retry of the same
        one.
        """
        if self.batch.on_error != "degrade":
            return
        for task in tasks:
            outcome = outcomes[task.key]
            if outcome.record is not None or outcome.error is None:
                continue
            for rung in DEGRADATION_LADDER:
                start = time.time()  # wall: trace timestamp only
                start_mono = time.monotonic()
                try:
                    record, _, _ = compute_record(
                        task.name, parse_function(task.text), self.config,
                        self.machine,
                        args=task.workload.args,
                        arrays=task.workload.arrays,
                        simulate=self.batch.simulate,
                        fingerprint=task.fingerprint,
                        allocator=rung,
                    )
                except Exception as exc:
                    # A rung may legitimately fail (chaitin can still run
                    # out of colors); the ladder moves on to the next one.
                    # But the failure is surfaced, not swallowed: it is
                    # classified into the taxonomy and emitted as a
                    # TaskFailed trace row tagged with the rung.
                    error_class, permanence = classify_exception(exc)
                    if self.tracer.enabled:
                        self.tracer.emit(TaskFailed(
                            function=task.name,
                            fingerprint=task.fingerprint,
                            error_class=error_class,
                            permanence=permanence,
                            attempt=task.attempt,
                            message=f"fallback {rung!r}: {exc}",
                        ))
                    continue
                outcome.record = record
                outcome.degraded = True
                outcome.fallback_allocator = rung
                outcome.timing = {
                    "start": start,
                    "duration": time.monotonic() - start_mono,
                    "pid": os.getpid(),
                }
                if self.tracer.enabled:
                    self.tracer.emit(Degraded(
                        function=task.name, fingerprint=task.fingerprint,
                        fallback_allocator=rung,
                        error_class=outcome.error.error_class,
                    ))
                break
