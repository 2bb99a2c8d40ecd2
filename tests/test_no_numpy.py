"""The runtime needs nothing beyond the standard library.

numpy used to be a runtime import of every process (the dense frequency
solve and a vectorized liveness sweep).  Importing it costs about 10 MiB
of resident memory per process, a third of a small-function batch
worker's peak.  This guard keeps a stray import from bringing it back: a
fresh interpreter loads every entry point, allocates one function inline
and one through a 1-worker ``BatchEngine``, and numpy must be absent from
the parent process and mapped into no worker (checked where ``/proc``
exists).
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import os
import sys

import repro.batch.engine
import repro.cli
import repro.service.server
from repro.batch.engine import BatchEngine
from repro.core import HierarchicalAllocator
from repro.core.config import BatchConfig
from repro.machine.target import Machine
from repro.pipeline import Workload, compile_function
from repro.workloads.kernels import sequential_loops

fn = sequential_loops(30)
result = compile_function(
    Workload(fn, {"n": 5}, {}, name="inline"),
    HierarchicalAllocator(),
    Machine.simple(4),
)
assert result.allocated_run.returned == result.reference_run.returned

with BatchEngine(batch=BatchConfig(batch_workers=1, registers=4)) as engine:
    module = engine.allocate_module(
        [Workload(sequential_loops(31), {"n": 5}, {}, name="pooled")]
    )
    assert module.ok, [r.error for r in module]
    workers = list(engine._pool._processes)
    assert workers, "the pooled allocation ran no worker"
    for pid in workers:
        maps = "/proc/%d/maps" % pid
        if os.path.exists(maps):
            with open(maps) as fh:
                assert "numpy" not in fh.read(), "worker %d mapped numpy" % pid

assert "numpy" not in sys.modules, "numpy was imported"
print("no numpy")
"""


def test_entry_points_and_workers_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "no numpy" in proc.stdout
