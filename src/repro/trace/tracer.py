"""The tracer carried through the allocation pipeline.

Two implementations share one interface:

* :class:`NullTracer` -- the default on every
  :class:`~repro.core.info.FunctionContext`.  ``enabled`` is ``False`` and
  every method is a no-op; hot paths guard event construction with
  ``if tracer.enabled:`` so a traced-off allocation does no extra work
  beyond that attribute test (the perf gate runs with this tracer).
* :class:`AllocationTracer` -- fans events out to its sinks and keeps
  named counters.  Thread-safe: the service and the batch engine may
  emit from more than one thread, so ``emit`` serializes sink writes
  behind a lock.

Tracing is strictly observational: no tracer method returns data into the
allocator, so enabling it cannot change allocation output (property-tested
in ``tests/test_trace.py``).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Sequence


class NullTracer:
    """Do-nothing tracer; the zero-cost default."""

    __slots__ = ()

    enabled: bool = False

    def emit(self, event: object) -> None:
        """Record one event (no-op here)."""

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter *name* by *n* (no-op here)."""

    def counters(self) -> Dict[str, int]:
        """Snapshot of the accumulated counters."""
        return {}

    def close(self) -> None:
        """Flush and close the sinks (no-op here)."""


#: Shared default instance -- stateless, so one object serves every context.
NULL_TRACER = NullTracer()


class AllocationTracer(NullTracer):
    """Structured event recorder for one (or more) allocation runs.

    Args:
        sinks: objects with ``handle(event)`` and ``close()`` -- see
            :mod:`repro.trace.sinks`.  Events are delivered to every sink
            in order.
    """

    __slots__ = ("sinks", "_counters", "_lock")

    enabled = True

    def __init__(self, sinks: Sequence[object] = ()) -> None:
        self.sinks: List[object] = list(sinks)
        self._counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def emit(self, event: object) -> None:
        name = f"events.{type(event).__name__}"
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + 1
            for sink in self.sinks:
                sink.handle(event)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def close(self) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.close()
