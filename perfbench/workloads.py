"""The three workloads: ``module_cold``, ``large_fn`` and ``service_mix``.

Each drives the program only from outside -- ``BatchEngine``,
``pipeline.prepare`` + ``HierarchicalAllocator.allocate``, and
``python -m repro serve`` over HTTP -- and times calls into those public
functions.  Why each workload exists, and which metric each layer should
move, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    SRC,
    CheckCache,
    HostSpeed,
    Run,
    quantile,
    vm_hwm_mb,
)
from inputs import (
    EDIT,
    NEW,
    PAIR,
    REPEAT,
    Size,
    first_large,
    item_key,
    large_draw,
    module_passes,
    service_stream,
    warmup_functions,
)
from layers import Decomposition, decompose

#: Worker processes of ``module_cold``: fixed by the workload, never taken
#: from the host, so runs compare across machines of one size.
POOL_WORKERS = 2

REGISTERS = 8

#: Service answers that refuse work rather than fail it.
REFUSALS = (413, 429, 503)


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# set-up, measured in fresh processes
# ----------------------------------------------------------------------
def probe(workload: str) -> None:
    """Child side of a set-up measurement: set up, print ``ready``, clean up.

    The parent times from spawning this process to reading ``ready``, so
    interpreter start and imports count.
    """
    if workload == "module_cold":
        from repro.batch.engine import BatchEngine
        from repro.core.config import BatchConfig

        with BatchEngine(
            batch=BatchConfig(batch_workers=POOL_WORKERS, registers=REGISTERS)
        ) as engine:
            engine.allocate_module(warmup_functions(2 * POOL_WORKERS))
            print("ready", flush=True)
    elif workload == "large_fn":
        from repro.core import HierarchicalAllocator, HierarchicalConfig
        from repro.machine.target import Machine
        from repro.pipeline import prepare

        first = first_large()
        HierarchicalAllocator(HierarchicalConfig()).allocate(
            prepare(first.fn), Machine.simple(REGISTERS)
        )
        print("ready", flush=True)
    else:
        raise ValueError(f"no set-up probe for {workload!r}")


def measure_setup(workload: str,
                  size: Size) -> Tuple[List[float], List[float]]:
    """``(adjusted, raw)`` set-up times of ``size.probes`` fresh processes,
    in seconds, each adjusted by host probes taken around it."""
    host = HostSpeed()
    adjusted, raw = [], []
    for _ in range(size.probes):
        before = host.probe(all_cpus=True)
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--probe", workload],
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
        finally:
            child.stdout.close()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"{workload} set-up probe failed (exit {code})")
        raw.append(elapsed)
        adjusted.append(elapsed * host.scale(before,
                                             host.probe(all_cpus=True)))
    return adjusted, raw


def _put_setup(run: Run, samples: Tuple[List[float], List[float]]) -> None:
    adjusted, raw = samples
    run.put("setup_s", statistics.median(adjusted), "s", len(adjusted),
            raw=statistics.median(raw))


def _put_latencies(run: Run, prefix: str, samples_ms: List[float],
                   raw_ms: List[float], high: float, high_name: str) -> None:
    """p50 and the *high* quantile of host-adjusted *samples_ms*."""
    run.put(f"{prefix}_p50_ms", quantile(samples_ms, 0.5), "ms",
            len(samples_ms), raw=quantile(raw_ms, 0.5))
    run.put(high_name, quantile(samples_ms, high), "ms", len(samples_ms),
            raw=quantile(raw_ms, high))


def _put_quality(run: Run, checked) -> None:
    checked = list(checked)
    run.put("dyn_spill_refs", sum(c.spill_refs for c in checked), "count",
            len(checked))
    run.put("dyn_moves", sum(c.moves for c in checked), "count", len(checked))
    run.put("code_instrs", sum(c.instrs for c in checked), "count",
            len(checked))


def _put_layers(run: Run, layers: Decomposition) -> None:
    """Per-layer metrics of the traced decomposition (means per function)."""
    self_ms = {
        name: [s * 1000.0 for s in values]
        for name, values in run.spans.self_times().items()
    }
    n = layers.functions

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    for span, metric in (("renaming", "renaming.ms"), ("arena", "arena.ms"),
                         ("liveness", "liveness.ms"),
                         ("frequency", "frequency.ms"),
                         ("simulate", "simulate.ms"),
                         ("allocate", "allocate.ms"),
                         ("ir.parse", "ir.parse_ms"),
                         ("ir.format", "ir.format_ms")):
        run.put(metric, mean(self_ms.get(span, [])), "ms", n)
    run.put("frequency.first_ms", layers.frequency_first_ms, "ms", min(n, 1))
    for stage, values in layers.stage_ms.items():
        run.put(f"{stage}.ms", mean(values), "ms", len(values))
    for name, value in layers.counts.items():
        run.put(name, value, "count", n)


def _check_layer_outputs(run: Run, layers: Decomposition,
                         expected: Dict[str, str]) -> None:
    for trace_id, sha in layers.shas.items():
        if expected.get(trace_id) != sha:
            run.problem(f"traced allocation of {trace_id} differs")


# ----------------------------------------------------------------------
# module_cold
# ----------------------------------------------------------------------
def run_module_cold(run: Run, size: Size) -> None:
    """Modules the engine's cache has never seen, through a 2-worker pool.

    Pass 0 is the anchor module; every later pass is a module drawn from
    the seed (see ``inputs.module_passes``).  The cache is emptied before
    each pass.  Passes repeat until their wall times add up to
    ``--seconds`` (at least two passes); generating modules, probing the
    host and checking outputs happen between passes.
    """
    from repro.batch.engine import BatchEngine
    from repro.core.config import BatchConfig

    _put_setup(run, measure_setup("module_cold", size))
    engine = BatchEngine(
        batch=BatchConfig(batch_workers=POOL_WORKERS, registers=REGISTERS)
    )
    try:
        # The workers fork from this process: start them before the inputs
        # exist, so that their peak memory is their own.
        engine.start()
        engine.allocate_module(warmup_functions(2 * POOL_WORKERS))
        _module_cold_passes(run, size, engine)
    finally:
        engine.close()


def _module_cold_passes(run: Run, size: Size, engine) -> None:
    from repro.machine.target import Machine

    excluded: List[str] = []
    passes = module_passes(run.seed, size.module, excluded)
    digest_passes = [next(passes), next(passes)]

    layers = Decomposition()
    if run.trace:
        machine = Machine.simple(REGISTERS)
        for k, module in enumerate(digest_passes):
            for i, workload in enumerate(module):
                decompose(run.spans, f"p{k}f{i}", workload, machine, True,
                          layers)

    checks = CheckCache()
    host = run.host
    fps: List[float] = []
    walls: List[float] = []        # host-adjusted, like every list but raw
    raw_walls: List[float] = []
    sizes: List[int] = []
    durations_ms: List[List[float]] = []    # per pass
    raw_durations_ms: List[List[float]] = []
    functions = 0
    anchor = []
    expected: Dict[str, str] = {}
    start = time.perf_counter()
    k = 0
    while k < 2 or sum(raw_walls) < run.seconds:
        module = digest_passes[k] if k < 2 else next(passes)
        engine.cache.clear_memory()
        before = host.probe(all_cpus=True)
        with run.spans.span("engine.allocate_module", f"pass{k}"):
            t0 = time.perf_counter()
            result = engine.allocate_module(module)
            wall = time.perf_counter() - t0
        scale = host.scale(before, host.probe(all_cpus=True))
        raw_walls.append(wall)
        walls.append(wall * scale)
        sizes.append(len(module))
        fps.append(len(module) / walls[-1])
        functions += len(module)
        durations_ms.append([])
        raw_durations_ms.append([])
        for i, (workload, res) in enumerate(zip(module, result)):
            run.attempted += 1
            if not res.cached:
                raw_durations_ms[-1].append(res.duration * 1000.0)
                durations_ms[-1].append(res.duration * 1000.0 * scale)
            if res.record is None or res.degraded:
                run.fail(f"{res.name}: {res.error}")
                continue
            checked = checks.check(res.fingerprint, workload,
                                   res.record.allocated_text)
            if not checked.ok:
                run.fail(f"{res.name}: {checked.detail}", wrong=True)
            if k < 2:
                run.digest_hashes.append(checked.sha256)
                expected[f"p{k}f{i}"] = checked.sha256
            if k == 0:
                anchor.append(checked)
        k += 1
    total_wall = time.perf_counter() - start
    rss = [vm_hwm_mb(p.pid) for p in multiprocessing.active_children()]
    stats = engine.stats

    run.put("cold_fps", statistics.median(fps), "fn/s", len(fps),
            raw=statistics.median(n / w for n, w in zip(sizes, raw_walls)))
    run.put("req_rps", functions / sum(walls), "req/s", functions,
            raw=functions / sum(raw_walls))
    # A pass is adjusted as a whole, and the host's speed moves within a
    # pass: per-pass time sums spread 15% within one run.  p50 and p90 are
    # therefore medians over passes of each pass's quantile.
    def per_pass(passes, q):
        return statistics.median(quantile(p, q) for p in passes if p)

    computed = sum(len(p) for p in durations_ms)
    for name, q in (("alloc_p50_ms", 0.5), ("alloc_p90_ms", 0.9),
                    ("req_p50_ms", 0.5)):
        run.put(name, per_pass(durations_ms, q), "ms", computed,
                raw=per_pass(raw_durations_ms, q))
    # A request is one function and its latency the engine's time for it:
    # a run has ~20 passes, too few for a p99 of pass walls (it would be
    # the slowest pass); cold_fps already gives the pass walls.
    run.put("req_p99_ms", quantile(sum(durations_ms, []), 0.99), "ms",
            computed, raw=quantile(sum(raw_durations_ms, []), 0.99))
    run.put("peak_rss_mb", max(rss) if rss else 0.0, "MiB", len(rss))
    _put_quality(run, anchor)
    run.notes["pass_fps"] = [round(x, 1) for x in fps]
    run.notes["run_wall_s"] = total_wall
    run.notes["excluded"] = excluded

    if run.trace:
        _check_layer_outputs(run, layers, expected)
        _put_layers(run, layers)
        run.put("engine.compute_ms", statistics.fmean(sum(durations_ms, [])),
                "ms", computed)
        run.put("engine.wall_ms", stats.wall_s * 1000.0 / stats.functions,
                "ms", stats.functions)
        _put_engine_counts(run, stats.as_dict())
        _put_no_service(run)


def _put_engine_counts(run: Run, engine: Dict[str, object]) -> None:
    hits, misses = int(engine["hits"]), int(engine["misses"])
    lookups = hits + misses
    run.put("engine.hits", hits, "count", lookups)
    run.put("engine.misses", misses, "count", lookups)
    run.put("engine.hit_ratio", hits / max(lookups, 1), "ratio", lookups)
    for name in ("retries", "pool_restarts", "degraded"):
        run.put(f"engine.{name}", int(engine[name]), "count", lookups)
    tile_hits, tile_misses = int(engine["tile_hits"]), int(engine["tile_misses"])
    run.put("tile.hits", tile_hits, "count", tile_hits + tile_misses)
    run.put("tile.misses", tile_misses, "count", tile_hits + tile_misses)
    run.put("tile.hit_ratio", tile_hits / max(tile_hits + tile_misses, 1),
            "ratio", tile_hits + tile_misses)
    run.put("tile.subtrees_reused", int(engine["subtrees_reused"]), "count",
            tile_hits + tile_misses)


# ----------------------------------------------------------------------
# large_fn
# ----------------------------------------------------------------------
def run_large_fn(run: Run, size: Size) -> None:
    """Large functions, one at a time, in this process, at R=8.

    The draw is allocated in turn, over and over, until the timed
    ``prepare`` + ``allocate`` calls add up to ``--seconds`` (at least one
    whole round and ``size.large_calls`` calls).  Each output is checked
    untimed: by simulation the first time, by hash equality with the first
    output after that.
    """
    from repro.core import HierarchicalAllocator, HierarchicalConfig
    from repro.ir.printer import format_function
    from repro.machine.rewrite import remove_self_moves
    from repro.machine.target import Machine
    from repro.pipeline import prepare

    _put_setup(run, measure_setup("large_fn", size))
    draw, anchor_count = large_draw(run.seed, size)
    machine = Machine.simple(REGISTERS)

    layers = Decomposition()
    if run.trace:
        for i, workload in enumerate(draw):
            decompose(run.spans, f"f{i}", workload, machine, False, layers)

    allocator = HierarchicalAllocator(HierarchicalConfig())
    allocator.allocate(prepare(draw[0].fn), machine)  # the set-up's warm-up
    checks = CheckCache()
    host = run.host
    samples_ms: List[float] = []   # host-adjusted
    raw_ms: List[float] = []
    first_round = []
    start = time.perf_counter()
    i = 0
    while (i < max(len(draw), size.large_calls)
           or sum(raw_ms) < run.seconds * 1000.0):
        position = i % len(draw)
        workload = draw[position]
        before = host.probe()
        with run.spans.span("prepare+allocate", f"f{position}"):
            t0 = time.perf_counter()
            outcome = allocator.allocate(prepare(workload.fn), machine)
            elapsed = time.perf_counter() - t0
        raw_ms.append(elapsed * 1000.0)
        samples_ms.append(elapsed * 1000.0 * host.scale(before, host.probe()))
        run.attempted += 1
        remove_self_moves(outcome.fn)
        checked = checks.check(str(position), workload,
                               format_function(outcome.fn))
        if not checked.ok:
            run.fail(f"{workload.label()}: {checked.detail}", wrong=True)
        if i < len(draw):
            first_round.append(checked)
            run.digest_hashes.append(checked.sha256)
        i += 1
    wall = time.perf_counter() - start

    _put_latencies(run, "alloc", samples_ms, raw_ms, 0.9, "alloc_p90_ms")
    # As in module_cold, a request is the whole draw and each function
    # waits for its round: ~120 single calls cannot carry a p99.
    n = len(draw)

    def rounds(values):
        return [sum(values[r * n:(r + 1) * n])
                for r in range(len(values) // n)]

    _put_latencies(run, "req", rounds(samples_ms), rounds(raw_ms), 0.99,
                   "req_p99_ms")
    run.put("cold_fps", 1000.0 * len(samples_ms) / sum(samples_ms), "fn/s",
            len(samples_ms), raw=1000.0 * len(raw_ms) / sum(raw_ms))
    run.put("req_rps", len(samples_ms) / (wall * host.factor()), "req/s",
            len(samples_ms), raw=len(samples_ms) / wall)
    run.put("peak_rss_mb", vm_hwm_mb(), "MiB", 1)
    _put_quality(run, first_round[:anchor_count])
    run.notes["rounds"] = round(i / len(draw), 2)

    if run.trace:
        _check_layer_outputs(
            run, layers, {f"f{k}": c.sha256 for k, c in enumerate(first_round)})
        _put_layers(run, layers)
        _put_engine_counts(run, _NO_ENGINE)
        run.put("engine.compute_ms", 0.0, "ms", 0)
        run.put("engine.wall_ms", 0.0, "ms", 0)
        _put_no_service(run)


def _put_no_service(run: Run) -> None:
    """The service's layer does not run in this workload: zero, n=0."""
    for name, unit in SERVICE_LAYER:
        run.put(name, 0, unit, 0)


SERVICE_LAYER = (
    ("service.server_p50_ms", "ms"), ("service.client_gap_ms", "ms"),
    ("service.coalesced", "count"), ("service.queue_peak", "count"),
    ("req.new_p50_ms", "ms"), ("req.repeat_p50_ms", "ms"),
    ("req.edit_p50_ms", "ms"),
)


_NO_ENGINE = {"hits": 0, "misses": 0, "retries": 0, "pool_restarts": 0,
              "degraded": 0, "tile_hits": 0, "tile_misses": 0,
              "subtrees_reused": 0}


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
class Server:
    """``python -m repro serve --port 0`` on its defaults, as a child."""

    def __init__(self) -> None:
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.healthz_ok = 0

    def start(self) -> float:
        """Spawn and wait for ``/healthz`` to answer 200; returns seconds."""
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )
        line = self.process.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

        async def wait_healthy() -> None:
            while True:
                try:
                    async with ServiceClient("127.0.0.1", self.port, 1) as c:
                        reply = await c.healthz()
                    if reply.status == 200:
                        self.healthz_ok += 1
                        return
                except OSError:
                    pass
                await asyncio.sleep(0.005)

        asyncio.run(asyncio.wait_for(wait_healthy(), timeout=60))
        return time.perf_counter() - start

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        process.stdout.close()


class _Pair:
    def __init__(self, item, owner: int) -> None:
        self.item = item
        self.owner = owner
        self.taken = asyncio.Event()


#: Seconds of load between two host-speed probes of the closed loop.
PROBE_INTERVAL_S = 0.25


async def _closed_loop(port: int, items, seconds: float, spans,
                       host: HostSpeed):
    """Two callers, each sending its next request when the previous reply
    arrives (a closed loop), over one two-connection client.  A ``pair``
    item is sent by both callers at once.

    Every :data:`PROBE_INTERVAL_S` a third task holds the callers, waits
    until no request is in flight, probes every CPU and lets the callers
    go on, so every request runs between two probes: each reply is stored
    with the index of the probe after it.  Returns the wall time of the
    loop without these pauses (the callers send for *seconds* of it)."""
    from repro.service.client import ServiceClient
    from repro.service.http import ProtocolError

    replies: Dict[int, List[Tuple[float, int, Optional[dict], int]]] = {}
    state = {"cursor": 0, "pair": None, "sent": 0, "in_flight": 0,
             "paused_s": 0.0, "done": False}
    running = asyncio.Event()
    running.set()
    idle = asyncio.Event()
    idle.set()
    deadline = time.perf_counter() + seconds

    def take(caller: int):
        pair = state["pair"]
        if pair is not None and pair.owner != caller:
            state["pair"] = None
            pair.taken.set()
            return pair.item, None
        # Once one caller stops, both do: a later pause would move the
        # deadline, and a pair taken then would wait for a caller that is
        # gone.
        state["done"] = state["done"] or (
            time.perf_counter() - state["paused_s"] >= deadline
            or state["cursor"] >= len(items))
        if state["done"]:
            return None
        item = items[state["cursor"]]
        state["cursor"] += 1
        if item.kind == PAIR:
            pair = _Pair(item, caller)
            state["pair"] = pair
            return item, pair
        return item, None

    async def caller(client, number: int) -> None:
        while True:
            await running.wait()
            got = take(number)
            if got is None:
                return
            item, pair = got
            if pair is not None:
                await pair.taken.wait()
            state["sent"] += 1
            state["in_flight"] += 1
            idle.clear()
            with spans.span("request", f"r{item.index}"):
                t0 = time.perf_counter()
                try:
                    reply = await client.allocate([item.spec()],
                                                  include_text=True)
                    status, data = reply.status, reply.data
                except (OSError, asyncio.IncompleteReadError,
                        ProtocolError) as exc:
                    status, data = 0, {"error": str(exc)}
                latency = time.perf_counter() - t0
            state["in_flight"] -= 1
            if not state["in_flight"]:
                idle.set()
            replies.setdefault(item.index, []).append(
                (latency, status, data, len(host.samples)))

    async def probe_host() -> None:
        while True:
            await asyncio.sleep(PROBE_INTERVAL_S)
            running.clear()
            t0 = time.perf_counter()
            await idle.wait()
            host.probe(all_cpus=True)
            state["paused_s"] += time.perf_counter() - t0
            running.set()

    async with ServiceClient("127.0.0.1", port, max_connections=2) as client:
        host.probe(all_cpus=True)
        start = time.perf_counter()
        prober = asyncio.ensure_future(probe_host())
        try:
            await asyncio.gather(caller(client, 0), caller(client, 1))
            wall = time.perf_counter() - start - state["paused_s"]
        finally:
            prober.cancel()
            await asyncio.gather(prober, return_exceptions=True)
        host.probe(all_cpus=True)
        metrics = await client.metrics()
    return replies, wall, state["sent"], metrics.data


def run_service_mix(run: Run, size: Size) -> None:
    """A mixed request stream against ``repro serve`` (see ``inputs``)."""
    from repro.machine.target import Machine

    excluded: List[str] = []
    items = service_stream(run.seed, max(int(run.seconds * size.stream_rate),
                                         size.digest_requests),
                           module_size=size.module, excluded=excluded)
    prefix = items[:size.digest_requests]

    layers = Decomposition()
    if run.trace:
        machine = Machine.simple(REGISTERS)
        done = set()
        for item in prefix:
            if item.kind in (NEW, PAIR, EDIT) and item.index not in done:
                done.add(item.index)
                decompose(run.spans, f"r{item.index}", item.workload,
                          machine, True, layers)

    servers: List[Server] = []
    setup_host = HostSpeed()
    setup: Tuple[List[float], List[float]] = ([], [])
    try:
        for _ in range(max(size.probes, 1)):
            if servers:
                servers[-1].stop()
            server = Server()
            servers.append(server)
            before = setup_host.probe(all_cpus=True)
            elapsed = server.start()
            setup[1].append(elapsed)
            setup[0].append(elapsed * setup_host.scale(
                before, setup_host.probe(all_cpus=True)))
        server = servers[-1]
        replies, wall, sent, metrics = asyncio.run(
            _closed_loop(server.port, items, run.seconds, run.spans,
                         run.host))
        rss = vm_hwm_mb(server.process.pid)
    finally:
        for server in servers:
            server.stop()
    _put_setup(run, setup)

    checks = CheckCache()
    # Host-adjusted like every latency list here but raw_ms.
    factor = run.host.factor()
    probes = run.host.samples
    latency_ms: Dict[str, List[float]] = {NEW: [], REPEAT: [], EDIT: []}
    all_ms: List[float] = []
    raw_ms: List[float] = []
    raw_new_ms: List[float] = []
    statuses: Dict[int, int] = {}
    cached = 0
    new_done = 0
    answered: Dict[int, object] = {}
    for item in items:
        for latency, status, data, after in replies.get(item.index, ()):
            scale = run.host.scale(probes[after - 1], probes[after])
            run.attempted += 1
            statuses[status] = statuses.get(status, 0) + 1
            raw_ms.append(latency * 1000.0)
            all_ms.append(latency * 1000.0 * scale)
            kind = NEW if item.kind == PAIR else item.kind
            latency_ms[kind].append(latency * 1000.0 * scale)
            if kind == NEW:
                raw_new_ms.append(latency * 1000.0)
            if status != 200:
                run.fail(f"request {item.index}: status {status}")
                continue
            result = data["results"][0]
            if result["cached"] and not result["coalesced"]:
                cached += 1
            if not result["ok"] or result["degraded"]:
                run.fail(f"request {item.index}: {result['error']}")
                continue
            if item.kind in (NEW, PAIR) and item.index not in answered:
                new_done += 1
            checked = checks.check(item_key(item), item.workload,
                                   result["allocated_text"])
            if not checked.ok:
                run.fail(f"request {item.index}: {checked.detail}",
                         wrong=True)
            answered.setdefault(item.index, checked)

    completed = len(all_ms)
    run.put("req_rps", completed / (wall * factor), "req/s", completed,
            raw=completed / wall)
    _put_latencies(run, "req", all_ms, raw_ms, 0.99, "req_p99_ms")
    # Allocation latency here is what a caller with a new function waits.
    _put_latencies(run, "alloc", latency_ms[NEW], raw_new_ms, 0.9,
                   "alloc_p90_ms")
    run.put("cold_fps", new_done / (wall * factor), "fn/s", new_done,
            raw=new_done / wall)
    run.put("peak_rss_mb", rss, "MiB", 1)
    in_prefix = [answered[i.index] for i in prefix if i.index in answered]
    run.digest_hashes.extend(c.sha256 for c in in_prefix)
    anchors = [i for i in items if i.anchor][:size.quality_anchors]
    _put_quality(run, [answered[i.index] for i in anchors
                       if i.index in answered])
    run.notes["requests"] = {"sent": sent, "statuses": statuses,
                             "stream": len(items)}
    run.notes["excluded"] = excluded

    _cross_check(run, metrics, sent, statuses, cached,
                 edits=len(latency_ms[EDIT]),
                 healthz=servers[-1].healthz_ok)

    if run.trace:
        _check_layer_outputs(
            run, layers,
            {f"r{i}": c.sha256 for i, c in answered.items()
             if f"r{i}" in layers.shas})
        _put_layers(run, layers)
        engine = metrics["engine"]
        service = metrics["service"]
        server_ms = service["latency_ms"]["allocate"]
        run.put("engine.compute_ms",
                float(engine["wall_s"]) * 1000.0 / max(engine["computed"], 1),
                "ms", int(engine["computed"]))
        run.put("engine.wall_ms",
                float(engine["wall_s"]) * 1000.0 / max(engine["functions"], 1),
                "ms", int(engine["functions"]))
        _put_engine_counts(run, engine)
        run.put("service.server_p50_ms", float(server_ms["p50_ms"]), "ms",
                int(server_ms["count"]))
        run.put("service.client_gap_ms",
                statistics.fmean(raw_ms) - float(server_ms["mean_ms"]), "ms",
                completed)
        run.put("service.coalesced", int(service["coalesced"]), "count",
                int(service["functions"]))
        run.put("service.queue_peak", int(service["queue"]["peak"]), "count",
                1)
        for kind in (NEW, REPEAT, EDIT):
            values = latency_ms[kind]
            run.put(f"req.{kind}_p50_ms",
                    quantile(values, 0.5) if values else 0.0, "ms",
                    len(values))


def _cross_check(run: Run, metrics: dict, sent: int,
                 statuses: Dict[int, int], cached: int, edits: int,
                 healthz: int) -> None:
    """The client's counts must match the service's own ``/metrics``."""
    service = metrics["service"]
    engine = metrics["engine"]
    responses = {int(k): v for k, v in service["responses"].items()}
    refusals = sum(responses.get(code, 0) for code in REFUSALS)
    # /healthz answers of set-up also count as 200 responses.
    allocate_ok = responses.get(200, 0) - healthz
    problems = []
    if service["requests"].get("allocate", 0) != sent:
        problems.append(
            f"server saw {service['requests'].get('allocate', 0)} allocate "
            f"requests, client sent {sent}")
    if allocate_ok + refusals != sent:
        problems.append(
            f"sent {sent} != 200 responses {allocate_ok} + refusals "
            f"{refusals}")
    if statuses.get(200, 0) != allocate_ok:
        problems.append(
            f"client got {statuses.get(200, 0)} 200s, server sent "
            f"{allocate_ok}")
    if int(engine["hits"]) != cached:
        problems.append(
            f"engine hits {engine['hits']} != replies served from the cache "
            f"{cached}")
    if (int(engine["tile_hits"]) > 0) != (edits > 0):
        problems.append(
            f"tile hits {engine['tile_hits']} with {edits} edits sent")
    for problem in problems:
        run.problem(f"cross-check: {problem}")
    run.notes["cross_check"] = "ok" if not problems else problems


WORKLOADS = {
    "module_cold": run_module_cold,
    "large_fn": run_large_fn,
    "service_mix": run_service_mix,
}
