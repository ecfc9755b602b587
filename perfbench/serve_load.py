"""The ``serve_mixed`` workload: an open-loop, seeded arrival schedule
against a real ``ReproServer`` (run by ``serve_host.py`` in its own
process) reached over ``ServeClient``.

Traffic, in fixed-rate phases (Poisson arrivals):

* hot — ``suite_cell`` requests over the Figures 5-7 cells, all of them
  result-cache hits after the priming done in set-up;
* cold — ``run`` requests, each carrying a unique generated program, so
  they miss the cache, compile, execute and write back;
* duplicate — a copy of a cold request sent while it is in flight, so
  single-flight coalescing does work.

Every request is timed from the moment it was due, not from when the
generator got round to sending it, and the generator's own lateness is
reported.  Responses are checked after the clock stops: hot cells
against the Figures baseline counters, cold programs against an
in-process reference (output and exit code from the O0 pipeline on the
``simple`` engine; counters, for a sample, from the same pipeline
options on the ``simple`` engine).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .batch import FIGURE_COUNTERS, FUZZ_SHAPE, WARMUP_C, Pass, _derived
from .common import (
    REFERENCE_LOOP_S, ROOT, WORK, BenchError, median, pid_alive, proc_children, proc_hwm_mb, tail,
)

#: (phase, offered requests/s, share of ``--seconds``); the lowest rate
#: leaves one worker mostly idle, the highest saturates it on a 2-core
#: host.  The nominal phase stays well under saturation so that its
#: latencies are service times more than queueing, which amplifies any
#: slowdown of a shared host.
PHASES = (("low", 10.0, 0.15), ("nominal", 20.0, 0.7), ("high", 120.0, 0.15))
NOMINAL = "nominal"
#: share of requests that carry a unique program (cache misses)
COLD_SHARE = 0.25
#: share of cold requests followed by an in-flight duplicate
DUPLICATE_SHARE = 0.15
#: a phase meets the latency limit when its tail latency stays under this
LATENCY_LIMIT_MS = 1500.0
#: every Nth cold program also gets its counters checked (a full compile)
COUNTER_CHECK_EVERY = 6
#: candidate programs drawn per cold program (stratified by size)
COLD_STRATA = 4
START_REPEATS = 3

SERVE_LAYER = (
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.cache_hit_ratio",
    "serve.executed",
    "serve.coalesced",
    "serve.shed",
    "serve.worker_restarts",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.framing_ms",
    "serve.dispatch_ms",
    "serve.compile_ms",
    "serve.execute_ms",
    "serve.p50_ms",
    "serve.tail_ms",
    "serve.cold_p50_ms",
    "serve.cold_tail_ms",
    "serve.hot_p50_ms",
    "serve.goodput_rps",
    "loadgen.late_p99_ms",
    "loadgen.sent",
)


@dataclass
class Item:
    """One scheduled request."""

    at: float
    phase: str
    kind: str  # "hot" | "cold" | "dup"
    cell: tuple[str, str] | None = None
    program: int = -1  # index into the cold programs
    traced: bool = False
    # filled in by the generator
    sent: float = 0.0
    latency_ms: float = 0.0
    response: dict = field(default_factory=dict)


def paper_cells(programs=None) -> list[tuple[str, str]]:
    from repro.pipeline import paper_variants
    from repro.workloads import workload_names

    names = programs or workload_names()
    return [(name, variant) for name in names for variant in paper_variants()]


def build_schedule(seed: int, seconds: float, cells, traced: bool) -> list[Item]:
    """The seeded open-loop schedule; cold items number the programs."""
    rnd = random.Random(_derived(seed, "schedule"))
    items: list[Item] = []
    start = 0.0
    cold = 0
    for phase, rate, share in PHASES:
        end = start + seconds * share
        at = start + rnd.expovariate(rate)
        while at < end:
            if rnd.random() < COLD_SHARE:
                items.append(Item(at, phase, "cold", program=cold))
                if rnd.random() < DUPLICATE_SHARE:
                    lag = rnd.uniform(0.005, 0.02)
                    items.append(Item(at + lag, phase, "dup", program=cold))
                cold += 1
            else:
                items.append(Item(at, phase, "hot", cell=rnd.choice(cells)))
            at += rnd.expovariate(rate)
        start = end
    items.sort(key=lambda item: item.at)
    if traced:
        # alternate within each kind, so traced and untraced halves carry
        # the same mix and their latency ratio is the tracing overhead
        flip = {"hot": False, "cold": False}
        for item in items:
            if item.kind in flip:
                item.traced = flip[item.kind] = not flip[item.kind]
    return items


def cold_programs(seed: int, count: int) -> list[str]:
    """``count`` unique mid-size generated programs (the fuzz workload's
    shape).  Of :data:`COLD_STRATA` seed-derived candidates per program,
    ranked by size, every other one from the middle half is kept: each
    seed sees the same narrow spread of sizes, so the cold latency median
    settles with the samples one phase holds."""
    from repro.fuzz.gen import GenOptions, generate_program

    shape = GenOptions(**FUZZ_SHAPE)
    candidates = sorted(
        (
            generate_program(_derived(seed, f"cold{k}"), shape).source
            for k in range(count * COLD_STRATA)
        ),
        key=len,
    )
    middle = candidates[len(candidates) // 4 : 3 * len(candidates) // 4]
    chosen = middle[::2][:count]
    random.Random(_derived(seed, "cold-order")).shuffle(chosen)
    return chosen


# -- the server process --------------------------------------------------------


class Server:
    """One ``serve_host.py`` process with its own cache and artifacts."""

    def __init__(self, workers: int, cache_dir, artifacts_dir) -> None:
        self.workers = workers
        self.cache_dir = cache_dir
        self.artifacts_dir = artifacts_dir
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.pid = 0
        self.seen_pids: set[int] = set()
        self.peak_mb = 0.0

    async def start(self) -> float:
        """Spawn, wait for the listener, and warm a worker up with one
        compile-and-run; returns the seconds that took."""
        from repro.serve import ServeClient

        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_host.py"),
             str(self.workers), str(self.cache_dir), str(self.artifacts_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        loop = asyncio.get_running_loop()
        line = await loop.run_in_executor(None, self.process.stdout.readline)
        if not line:
            raise BenchError("serve_host exited before listening")
        info = json.loads(line)
        self.port, self.pid = info["port"], info["pid"]
        client = await ServeClient.connect(port=self.port)
        try:
            # no_cache: the warm-up must reach the worker on every start
            await client.call(
                "run", {"source": WARMUP_C, "name": "warmup", "no_cache": True}
            )
        finally:
            await client.close()
        self.sample_memory()
        return time.perf_counter() - started

    def sample_memory(self) -> None:
        """Peak of (server + live workers) ``VmHWM``; remembers workers."""
        children = proc_children(self.pid)
        self.seen_pids.update(children)
        total = proc_hwm_mb(self.pid) + sum(proc_hwm_mb(pid) for pid in children)
        self.peak_mb = max(self.peak_mb, total)

    async def drain(self, outcome) -> None:
        """Drain, wait for the process to exit, and fail the run if any
        worker it ever had is still alive."""
        from repro.serve import ServeClient

        client = await ServeClient.connect(port=self.port)
        try:
            await client.call("drain")
        finally:
            await client.close()
        loop = asyncio.get_running_loop()
        tail_out = await loop.run_in_executor(None, self.process.stdout.read)
        code = await loop.run_in_executor(None, lambda: self.process.wait(60))
        if code != 0:
            outcome.fail(f"server exited with {code}")
        for line in tail_out.splitlines():
            self.seen_pids.update(json.loads(line).get("spawned_pids", []))
        leaked = sorted(pid for pid in self.seen_pids if pid_alive(pid))
        if leaked:
            outcome.fail(f"worker pids outlived the drain: {leaked}")

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        for pid in self.seen_pids:
            if pid_alive(pid):
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    pass


# -- the generator -------------------------------------------------------------


async def _send(client, item: Item, due: float, programs: list[str]) -> None:
    loop = asyncio.get_running_loop()
    if item.kind == "hot":
        op, params = "suite_cell", {"workload": item.cell[0], "variant": item.cell[1]}
    else:
        op = "run"
        params = {"source": programs[item.program], "name": f"cold-{item.program}"}
    try:
        item.response = await client.request(op, params, trace=item.traced)
    except ConnectionError as error:
        item.response = {"ok": False, "error": {"code": "connection", "message": str(error)}}
    item.latency_ms = (loop.time() - due) * 1000.0


async def _watch_memory(server: Server, stop: asyncio.Event) -> None:
    while not stop.is_set():
        server.sample_memory()
        try:
            await asyncio.wait_for(stop.wait(), 0.25)
        except asyncio.TimeoutError:
            pass


async def run_schedule(server: Server, items: list[Item], programs) -> float:
    """Send every item on time over ``nproc`` pipelined connections;
    returns the wall seconds from the first due time to the last reply."""
    from repro.serve import ServeClient

    connections = max(1, os.cpu_count() or 1)
    clients = [await ServeClient.connect(port=server.port) for _ in range(connections)]
    stop = asyncio.Event()
    watcher = asyncio.create_task(_watch_memory(server, stop))
    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.05
    tasks = []
    try:
        for index, item in enumerate(items):
            due = origin + item.at
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            item.sent = loop.time() - due
            tasks.append(
                asyncio.create_task(_send(clients[index % connections], item, due, programs))
            )
        await asyncio.gather(*tasks)
        return loop.time() - origin
    finally:
        stop.set()
        await watcher
        for client in clients:
            await client.close()


# -- checks --------------------------------------------------------------------


def _counters(payload: dict) -> dict:
    return {m: payload["counters"][m] for m in FIGURE_COUNTERS}


def _expected(expected: dict, key: str) -> dict | None:
    want = expected.get(key)
    return None if want is None else {m: want[m] for m in FIGURE_COUNTERS}


def check_responses(items, programs, primed, expected, outcome) -> None:
    """Every response against its reference, computed off the clock."""
    from repro.fuzz.oracle import o0_options
    from repro.interp import MachineOptions
    from repro.pipeline import PipelineOptions, compile_and_run

    simple = MachineOptions(engine="simple")
    references: dict[int, tuple] = {}
    for item in items:
        outcome.attempted += 1
        response = item.response
        if not response.get("ok"):
            outcome.fail(f"{item.kind} request failed: {response.get('error')}")
            continue
        result = response["result"]
        if item.kind == "hot":
            key = f"{item.cell[0]}/{item.cell[1]}"
            want = primed[item.cell]
            if _counters(result) != _expected(expected, key) or result["output"] != want["output"]:
                outcome.fail(f"hot {key}: response differs from the reference")
            continue
        if item.program not in references:
            source = programs[item.program]
            o0 = compile_and_run(source, o0_options(), machine_options=simple)
            counters = None
            if item.program % COUNTER_CHECK_EVERY == 0:
                same = compile_and_run(source, PipelineOptions(), machine_options=simple)
                counters = same.counters.as_dict()
            references[item.program] = (o0.output, o0.exit_code, counters)
        output, exit_code, counters = references[item.program]
        if result["output"] != output or result["exit_code"] != exit_code:
            outcome.fail(f"cold-{item.program}: output/exit differ from O0 reference")
        elif counters is not None and result["counters"] != counters:
            outcome.fail(f"cold-{item.program}: counters differ from the reference")


def check_primed(primed, expected, outcome) -> None:
    for (program, variant), result in primed.items():
        key = f"{program}/{variant}"
        outcome.attempted += 1
        if _counters(result) != _expected(expected, key):
            outcome.fail(f"primed {key}: counters {_counters(result)} != baseline")


# -- metrics -------------------------------------------------------------------


def _phase_ok(items: list[Item]) -> bool:
    """Meets the latency limit, no failures, and no growing backlog (the
    last third's cold latency within 2x + 100 ms of the first third's)."""
    if not items or any(not item.response.get("ok") for item in items):
        return False
    if tail([item.latency_ms for item in items])[0] > LATENCY_LIMIT_MS:
        return False
    cold = [item.latency_ms for item in items if item.kind == "cold"]
    third = len(cold) // 3
    if third >= 3:
        return median(cold[-third:]) <= 2 * median(cold[:third]) + 100.0
    return True


#: the worker's own pipeline spans -> the per-layer metric they feed
#: (the in-process wrappers cannot reach a worker process)
WORKER_SPANS = {
    "parse": "frontend.s",
    "modref": "analysis.modref.s",
    "points_to": "analysis.pointsto.s",
    "clean": "opt.clean.s",
    "value_numbering": "opt.valuenum.s",
    "sccp": "opt.constprop.s",
    "promotion": "opt.promotion.s",
    "licm": "opt.licm.s",
    "pointer_promotion": "opt.pointer_promotion.s",
    "pre": "opt.pre.s",
    "dce": "opt.dce.s",
    "regalloc": "regalloc.s",
    "verify": "ir.verify.s",
    "optimize": "compile.other_s",
    "interp.decode": "interp.s",
    "interp.run": "interp.s",
}


def _self_seconds(events) -> dict:
    """Span id -> its duration minus its direct children's."""
    own = {event.span_id: event.seconds for event in events}
    for event in events:
        if event.parent_id in own:
            own[event.parent_id] -= event.seconds
    return own


def _delta(after: dict, before: dict, name: str) -> float:
    return after["metrics"].get(name, 0) - before["metrics"].get(name, 0)


def latencies(items) -> dict[str, float]:
    """Request latencies at the nominal phase, from untraced requests
    only, each timed from its due time."""
    nominal = [i for i in items if i.phase == NOMINAL and not i.traced]
    every = [i.latency_ms for i in nominal]
    cold = [i.latency_ms for i in nominal if i.kind == "cold"]
    return {
        "serve.p50_ms": median(every),
        "serve.tail_ms": tail(every)[0],
        "serve.cold_p50_ms": median(cold),
        "serve.cold_tail_ms": tail(cold)[0],
        "serve.hot_p50_ms": median([i.latency_ms for i in nominal if i.kind == "hot"]),
    }


def summarize(items, wall_s, outcome) -> None:
    """The end-to-end throughput; the latencies go to the notes (their
    spread on a shared host is wider than any bound, see README)."""
    ok = sum(1 for item in items if item.response.get("ok"))
    outcome.put("ok_per_s", ok / wall_s, "1/s")
    nominal = [i for i in items if i.phase == NOMINAL]
    outcome.notes["latency_ms"] = {k: round(v, 3) for k, v in latencies(items).items()}
    for kind, values in (
        ("all", [i.latency_ms for i in nominal]),
        ("cold", [i.latency_ms for i in nominal if i.kind == "cold"]),
    ):
        outcome.notes[f"tail_{kind}"] = dict(zip(("ms", "percentile", "samples"), tail(values)))


def layer_metrics(items, before: dict, after: dict) -> dict[str, float]:
    """The serve and generator layers' numbers for the traced run."""
    from repro.trace import SpanEvent, attribution

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    metrics = {
        "serve.cache_hits": hits,
        "serve.cache_misses": misses,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.executed": _delta(after, before, "serve.executed"),
        "serve.coalesced": _delta(after, before, "serve.coalesced"),
        "serve.shed": _delta(after, before, "serve.rejected_queue_full"),
        "serve.worker_restarts": _delta(after, before, "serve.worker_restarts"),
        "serve.queue_wait_p50_ms": after["queue_wait"]["p50_ms"],
        "serve.queue_wait_p99_ms": after["queue_wait"]["p99_ms"],
    }
    buckets: dict[str, list[float]] = {"framing": [], "dispatch": [], "compile": [], "execute": []}
    for item in items:
        if not (item.traced and item.kind == "cold" and item.response.get("ok")):
            continue
        events = [SpanEvent.from_dict(span) for span in item.response["result"]["trace"]["spans"]]
        shares = attribution(events)
        buckets["compile"].append(shares["compile"] * 1000.0)
        buckets["execute"].append(shares["execute"] * 1000.0)
        own = _self_seconds(events)
        buckets["framing"].append(
            sum(own[e.span_id] for e in events if e.name.endswith("framing")) * 1000.0
        )
        buckets["dispatch"].append(
            sum(own[e.span_id] for e in events if e.name == "dispatch") * 1000.0
        )
        for event in events:
            layer = WORKER_SPANS.get(event.name)
            if layer is not None:
                metrics[layer] = metrics.get(layer, 0.0) + own[event.span_id]
    for name, values in buckets.items():
        metrics[f"serve.{name}_ms"] = median(values)

    metrics.update(latencies(items))
    goodput = 0.0
    for phase, rate, _ in PHASES:
        if _phase_ok([item for item in items if item.phase == phase]):
            goodput = max(goodput, rate)
    metrics["serve.goodput_rps"] = goodput
    lateness = sorted(item.sent * 1000.0 for item in items)
    metrics["loadgen.late_p99_ms"] = lateness[int(0.99 * (len(lateness) - 1))] if lateness else 0.0
    metrics["loadgen.sent"] = len(items)

    traced = [i.latency_ms for i in items if i.kind == "cold" and i.traced]
    plain = [i.latency_ms for i in items if i.kind == "cold" and not i.traced]
    if traced and plain:
        metrics["trace.overhead"] = (sum(traced) / len(traced)) / (sum(plain) / len(plain)) - 1.0
    return metrics


# -- the whole workload ----------------------------------------------------------


async def _prime(server: Server, cells) -> tuple[dict, Pass]:
    """Run every hot cell once through ``server``, one at a time with a
    reference loop timed after each, as a batch pass times its
    operations; returns the results and the timings."""
    from repro.serve import ServeClient

    timings = Pass(wall_s=0.0)
    client = await ServeClient.connect(port=server.port)
    primed = {}
    try:
        last = timings.lap()
        for program, variant in cells:
            primed[(program, variant)] = await client.call(
                "suite_cell", {"workload": program, "variant": variant}
            )
            last = timings.record(f"{program}/{variant}", last)
    finally:
        await client.close()
    return primed, timings


async def run_serve(seed, seconds, traced, outcome, expected, programs_subset=None) -> dict:
    """Set up, drive the schedule, drain, check; returns the per-layer
    numbers (meaningful for traced runs)."""
    from repro.serve import ServeClient

    cores = os.cpu_count() or 1
    workdir = WORK / f"serve-{os.getpid()}"
    cache_dir, artifacts = workdir / "cache", workdir / "artifacts"
    cells = paper_cells(programs_subset)
    items = build_schedule(seed, seconds, cells, traced)
    programs = cold_programs(seed, 1 + max((i.program for i in items), default=-1))

    servers: list[Server] = []
    try:
        # set-up: a priming server (one worker) fills the result cache, a
        # probe server only starts, then the measured server starts on the
        # primed cache; set-up = median start + priming, quoted at
        # reference speed like the batch workloads' operations
        primer = Server(1, cache_dir, artifacts)
        servers.append(primer)
        starts = [await primer.start()]
        primed, priming = await _prime(primer, cells)
        await primer.drain(outcome)
        for _ in range(START_REPEATS - 1):
            server = Server(max(1, cores - 1), cache_dir, artifacts)
            servers.append(server)
            starts.append(await server.start())
            if len(starts) < START_REPEATS:
                await server.drain(outcome)
        measured = servers[-1]
        reference_s = median(priming.reference_s)
        priming_loops = sum(priming.costs.values())
        outcome.put("setup_s", (median(starts) / reference_s + priming_loops) * REFERENCE_LOOP_S, "s")
        outcome.notes["setup"] = {
            "starts_s": starts,
            "priming_s": sum(priming.latencies_ms.values()) / 1000.0,
            "reference_loop_ms": reference_s * 1000.0,
        }

        client = await ServeClient.connect(port=measured.port)
        before = await client.call("metrics")
        await client.close()
        wall_s = await run_schedule(measured, items, programs)
        client = await ServeClient.connect(port=measured.port)
        after = await client.call("metrics")
        await client.close()
        measured.sample_memory()
        await measured.drain(outcome)
        outcome.put("peak_rss_mb", measured.peak_mb, "MB")
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)

    summarize(items, wall_s, outcome)
    check_primed(primed, expected, outcome)
    check_responses(items, programs, primed, expected, outcome)
    layers = layer_metrics(items, before, after)
    outcome.notes["schedule"] = {
        "requests": len(items),
        "cold": sum(1 for i in items if i.kind == "cold"),
        "duplicates": sum(1 for i in items if i.kind == "dup"),
        "wall_s": wall_s,
        "phases": {name: rate for name, rate, _ in PHASES},
        "latency_limit_ms": LATENCY_LIMIT_MS,
    }
    return layers
