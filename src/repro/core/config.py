"""Configuration and ablation switches for the hierarchical allocator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.frequency import FrequencyInfo


@dataclass(frozen=True)
class HierarchicalConfig:
    """Knobs for :class:`~repro.core.allocator.HierarchicalAllocator`.

    Every switch defaults to the paper's described behaviour; turning one
    off reproduces the design-choice ablations of bench E12.

    Attributes:
        conditional_tiles: build tiles for conditional (SESE) regions, not
            just loops (section 2's "we include both loops and conditionals
            in our hierarchy").
        preferencing: propagate and honor register preferences (section 3,
            "Preferencing").
        store_avoidance: skip the store half of a Reload pair when the
            variable has no definition in the subtile ("the spill is
            unnecessary because v was never modified in the loop").
        demotion: in phase 2, change a child's register allocation to
            memory when the parent holds the variable in memory and
            ``weight_t(v) <= transfer_t(v)`` (section 4, "Placement of
            Spill Code").
        spill_temp_strategy: how operand temporaries for spilled variables
            get registers -- ``"recolor"`` adds them as infinite-spill-cost
            locals and recolors the tile (the paper's method); ``"reserve"``
            sets registers aside up front (the "simple solution [13]" the
            paper contrasts with; costs allocatable registers).
        frequencies: block/edge frequencies; ``None`` uses the static
            estimator.  Pass simulator-profile-derived frequencies for
            profile-guided allocation.
        max_tile_width: bound on conditional-tile width forwarded to tile
            construction.

    Every field can change the allocation, so every field but
    ``frequencies`` (per-run data) keys the batch and tile caches.  There
    are no scheduling knobs: each phase is one sequential walk of the
    tile tree.
    """

    conditional_tiles: bool = True
    preferencing: bool = True
    store_avoidance: bool = True
    demotion: bool = True
    spill_temp_strategy: str = "recolor"
    frequencies: Optional[FrequencyInfo] = None
    max_tile_width: Optional[int] = None
    #: spill-candidate ranking: "cost_over_degree" (Chaitin's ratio, the
    #: paper's implementation choice), "cost", or "degree" (section 4:
    #: "our algorithm could easily use either method").
    spill_heuristic: str = "cost_over_degree"

    def __post_init__(self) -> None:
        if self.spill_temp_strategy not in ("recolor", "reserve"):
            raise ValueError(
                f"unknown spill_temp_strategy {self.spill_temp_strategy!r}"
            )
        if self.spill_heuristic not in ("cost_over_degree", "cost", "degree"):
            raise ValueError(
                f"unknown spill_heuristic {self.spill_heuristic!r}"
            )


@dataclass(frozen=True)
class BatchConfig:
    """Knobs for the batch allocation engine (:mod:`repro.batch`).

    These control *orchestration only* -- how many functions are allocated
    at once and whether results are reused -- never what the allocator
    decides for any single function, so they are kept apart from
    :class:`HierarchicalConfig` (whose semantic fields form the cache
    invalidation key; see :mod:`repro.batch.serialize`).

    Attributes:
        batch_workers: worker *processes* for cache misses.  ``0`` allocates
            in-process (no pool) -- the right choice for one-off runs; the
            pool only pays off across many functions.
        cache_dir: directory for the persistent content-addressed store.
            Required for ``cache_policy="disk"``.
        cache_policy: ``"memory"`` (in-memory LRU of
            :data:`repro.batch.cache.CACHE_CAPACITY` entries, the
            default), ``"disk"`` (LRU in front of an on-disk store under
            *cache_dir*), or ``"off"`` (every function is recomputed).
        registers: machine size functions are allocated for (the machine is
            part of the invalidation key).
        simulate: run the allocated program on the workload's inputs and
            record the dynamic cost counters in the cached record (also
            verifies the allocation differentially, as the pipeline does).
            Workloads without inputs are allocated statically either way.
        max_retries: bounded retries per task for *transient* failures
            (crashed/hung workers, memory pressure -- see
            :mod:`repro.errors`).  Permanent failures are never retried
            with the same allocator; they go to the degradation ladder
            (or fail, per *on_error*).
        retry_backoff_s: base of the deterministic exponential backoff
            before attempt ``n`` (delay = ``retry_backoff_s * 2**(n-1)``).
        task_timeout_s: per-task wall-clock budget for *pooled* tasks;
            a task exceeding it fails with error class ``"timeout"``
            (transient) and the pool is restarted to reclaim the stuck
            worker.  ``None`` disables the timeout.  Inline tasks
            (``batch_workers == 0``) cannot be preempted and ignore it.
        on_error: what a function's *final* failure (permanent, or
            transient with retries exhausted) does to the module:
            ``"degrade"`` (default) walks the degradation ladder --
            retry with the Chaitin comparison allocator, then the naive
            spill-everywhere baseline -- and only yields an error result
            if every rung fails; ``"skip"`` yields an error result
            immediately; ``"fail"`` re-raises (strict mode:
            :class:`repro.errors.BatchFunctionError`).
        tile_cache: attach a per-tile memoization store
            (:mod:`repro.core.incremental`) to every hierarchical
            allocation the engine runs.  Re-allocating an edited function
            then reuses each clean subtree's phase-1 summary and phase-2
            binding and recomputes only dirty tiles -- bit-identical
            output, proven by ``repro.determinism check --incremental``.
            Stores are per-process (the coordinator holds one for inline
            tasks, each pool worker holds its own), complementary to the
            function-level result cache: that one only hits on identical
            *whole functions*, this one hits on identical *tiles*.
        tile_cache_entries: LRU capacity (phase-1 entries plus phase-2
            overlays) of each per-process tile store.
        max_fuel: deterministic fuel budget per hierarchical allocation
            (see :mod:`repro.core.budget`).  Exhaustion is a *permanent*
            failure (error class ``"budget"``) that feeds the degradation
            ladder; the same input with the same fuel always fails or
            succeeds identically.  ``None`` (default) is unlimited and
            keeps the zero-cost fast path.  Degradation-ladder rungs
            always run unbudgeted so they can complete.
        deadline_s: wall-clock backstop per hierarchical allocation.
            Unlike fuel, elapsed time is not deterministic, so a blown
            deadline is a *transient* failure (error class
            ``"deadline"``) eligible for retry.  ``None`` disables it.
        admission_limit: admission control -- functions whose
            :func:`repro.core.budget.estimate_cost` exceeds this are
            never handed to the hierarchical allocator at all; they fail
            with permanent error class ``"admission"`` and route
            straight to the degradation ladder (or skip/fail, per
            *on_error*).  A pure function of the input, independent of
            cache state.  ``None`` admits everything.
    """

    batch_workers: int = 0
    cache_dir: Optional[str] = None
    cache_policy: str = "memory"
    registers: int = 8
    simulate: bool = True
    max_retries: int = 2
    retry_backoff_s: float = 0.05
    task_timeout_s: Optional[float] = None
    on_error: str = "degrade"
    tile_cache: bool = False
    tile_cache_entries: int = 4096
    max_fuel: Optional[int] = None
    deadline_s: Optional[float] = None
    admission_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cache_policy not in ("memory", "disk", "off"):
            raise ValueError(
                f"unknown cache_policy {self.cache_policy!r}"
            )
        if self.cache_policy == "disk" and not self.cache_dir:
            raise ValueError("cache_policy='disk' requires cache_dir")
        if self.batch_workers < 0:
            raise ValueError(
                f"batch_workers must be >= 0, got {self.batch_workers}"
            )
        if self.registers < 1:
            raise ValueError(
                f"registers must be >= 1, got {self.registers}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0, got {self.task_timeout_s}"
            )
        if self.on_error not in ("fail", "skip", "degrade"):
            raise ValueError(
                f"unknown on_error {self.on_error!r} "
                "(choose fail, skip, or degrade)"
            )
        if self.tile_cache_entries < 1:
            raise ValueError(
                f"tile_cache_entries must be >= 1, "
                f"got {self.tile_cache_entries}"
            )
        if self.max_fuel is not None and self.max_fuel < 1:
            raise ValueError(
                f"max_fuel must be >= 1, got {self.max_fuel}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.admission_limit is not None and self.admission_limit < 1:
            raise ValueError(
                f"admission_limit must be >= 1, got {self.admission_limit}"
            )
