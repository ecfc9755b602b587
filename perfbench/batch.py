"""The two in-process workloads: ``paper_figures`` and ``fuzz_oracle``.

Both run whole passes over one fixed input, round after round, until
``--seconds`` has elapsed (at least :data:`MIN_PASSES` rounds), timing
every operation — a Figures cell or a fuzz probe — from the progress
callback the public entry point offers, and timing a fixed reference
loop beside each one.  Throughput comes from each operation's median
cost over the rounds, in reference loops, so neither a burst of load
from elsewhere on a shared host nor a slower minute of it moves it much.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .common import REFERENCE_LOOP_S, ROOT, SRC, WORK, BenchError, median, reference_loop

#: the tiny program every set-up compiles and runs once (lazy imports,
#: pycparser tables, interpreter decode paths)
WARMUP_C = (
    "int total; int main(void) { int i; for (i = 0; i < 10; i++) "
    "{ total += i; } printf(\"total=%d\\n\", total); return 0; }"
)

#: the Figures 5-7 programs a ``paper_figures`` pass runs (all four
#: variants each): every program whose cells take under a second.  The
#: four largest (gzip_enc, gzip_dec, compress, clean) are 63% of a full
#: 56-cell pass; without them a pass is short enough to repeat
#: :data:`MIN_PASSES` times in one run
FIGURE_PROGRAMS = [
    "tsp", "bison", "bc", "go", "water", "indent", "mlink", "fft", "allroots", "dhrystone",
]
#: generated programs per fuzz pass
FUZZ_PROGRAMS = 36
#: program shape for the fuzz pass: smaller than the generator's default,
#: whose largest programs cost seconds each (compile time grows faster
#: than program size), so that a few of them cannot swing a pass's time
#: or its peak memory
FUZZ_SHAPE = {"max_helpers": 2, "max_stmts_per_block": 3, "max_loop_depth": 2, "max_expr_depth": 2}
#: a generated program (in :data:`FUZZ_SHAPE`) every fuzz pass judges
#: first.  Its hot loop makes the tier-2 engine generate one of the
#: largest regions seen: 16 MB of Python allocations at peak, where 150
#: seeded programs peaked at 0.8 MB (median) to 11.5 MB.  A pass's peak
#: memory is set by its largest tier-2 region, so without this program it
#: would swing with whether the seed's window happens to hold one
FUZZ_ANCHOR_SEED = 1245670220
#: seed-derived candidate windows the fuzz pass picks its programs from
FUZZ_WINDOWS = 64
#: programs that run the oracle's self-test with the known miscompile
FUZZ_BROKEN_PROGRAMS = 24

QUICK_FIGURE_PROGRAMS = ["allroots", "dhrystone"]
QUICK_FUZZ_PROGRAMS = 3

SETUP_REPEATS = 5
#: rounds a batch run makes at least, so every operation has a median
MIN_PASSES = 3

#: the counters Figures 5-7 report, checked against the committed baseline
FIGURE_COUNTERS = ("total_ops", "loads", "stores")


@dataclass
class Pass:
    """One pass over the workload's input."""

    wall_s: float
    #: operation (``program/variant`` or fuzz program name) -> its time
    latencies_ms: dict[str, float] = field(default_factory=dict)
    #: operation -> its time in reference loops: its seconds over the mean
    #: of the reference loops timed right before and right after it
    costs: dict[str, float] = field(default_factory=dict)
    #: seconds of every :func:`reference_loop` timed in the pass
    reference_s: list[float] = field(default_factory=list)

    def lap(self) -> float:
        """Time the reference loop; returns the clock after it, where
        the next operation's time starts."""
        started = time.perf_counter()
        reference_loop()
        now = time.perf_counter()
        self.reference_s.append(now - started)
        return now

    def record(self, operation: str, started: float) -> float:
        """Book ``operation``, which ran from ``started`` until now,
        then time the reference loop after it; returns the clock the
        next operation starts from."""
        seconds = time.perf_counter() - started
        self.latencies_ms[operation] = seconds * 1000.0
        after = self.lap()
        local = (self.reference_s[-2] + self.reference_s[-1]) / 2.0
        self.costs[operation] = seconds / local
        return after


def warm_up() -> None:
    from repro.pipeline import compile_and_run

    compile_and_run(WARMUP_C, name="warmup")


def measure_setup(modules: list[str]) -> list[float]:
    """Set-up seconds of :data:`SETUP_REPEATS` fresh interpreters: import
    ``modules`` and run the warm-up program (interpreter start-up itself
    is not the system's and is excluded).  Each is quoted at reference
    speed, by the median of three reference loops timed right after it."""
    script = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {name}\n" for name in modules)
        + "from perfbench.batch import warm_up\n"
        "warm_up()\n"
        "setup = time.perf_counter() - start\n"
        "from perfbench.common import reference_loop\n"
        "laps = []\n"
        "for _ in range(3):\n"
        "    start = time.perf_counter()\n"
        "    reference_loop()\n"
        "    laps.append(time.perf_counter() - start)\n"
        "print(setup, sorted(laps)[1])\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        setup_s, reference_s = (float(word) for word in done.stdout.split()[-2:])
        samples.append(setup_s * REFERENCE_LOOP_S / reference_s)
    return samples


# -- paper_figures -----------------------------------------------------------


def load_baseline() -> dict[str, dict]:
    """Expected Figure 5-7 counters per ``program/analysis/promo`` cell."""
    with open(ROOT / "benchmarks" / "baseline.json") as handle:
        return json.load(handle)["cells"]


def figures_pass(names, outcome, expected: dict[str, dict]) -> Pass:
    """All cells of Figures 5-7, compiled from scratch and run on the
    default engine, in-process, ``jobs=1``, no result cache or function
    store; every cell is checked against ``expected``."""
    from repro.errors import ReproError
    from repro.pipeline import check_outputs_agree
    from repro.runner.report import run_suite_report

    result = Pass(wall_s=0.0)
    last = [0.0]

    def progress(spec, cell) -> None:
        last[0] = result.record(f"{spec.workload}/{spec.variant}", last[0])

    started = time.perf_counter()
    last[0] = result.lap()
    report = run_suite_report(names, jobs=1, cache=None, progress=progress)
    result.wall_s = time.perf_counter() - started

    for (program, variant), cell in report.outcomes.items():
        outcome.attempted += 1
        key = f"{program}/{variant}"
        if not cell.ok:
            outcome.fail(f"{key}: {cell.kind}: {cell.message}")
            continue
        got = {m: getattr(cell.counters, m) for m in FIGURE_COUNTERS}
        want = {m: expected[key][m] for m in FIGURE_COUNTERS} if key in expected else None
        if got != want:
            outcome.fail(f"{key}: counters {got} != baseline {want}")
    for program, programs in report.results.items():
        try:
            check_outputs_agree(programs.cells)
        except ReproError as error:
            outcome.fail(f"{program}: {error}")
    for problem in report.disagreements:
        outcome.fail(problem)
    return result


# -- fuzz_oracle ---------------------------------------------------------------


def _derived(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def fuzz_window(seed: int, programs: int) -> int:
    """First generator seed of the pass's programs.

    Oracle cost grows with program size (roughly with its square), and
    the pass's peak memory with its largest program, so a bare seeded
    window of consecutive seeds would swing both with the seed.  Windows
    from :data:`FUZZ_WINDOWS` fixed seeds give two targets: the median
    summed squared source size and the median largest source.  Of as many
    seed-derived windows, those whose largest program is no larger than
    that are kept, and the one whose summed squared size is nearest the
    target is taken: seeds change which programs run, not how much input
    there is.
    """
    from repro.fuzz.gen import GenOptions, generate_program

    shape = GenOptions(**FUZZ_SHAPE)

    def sizes(start: int) -> tuple[int, int]:
        lengths = [len(generate_program(start + k, shape).source) for k in range(programs)]
        return sum(n * n for n in lengths), max(lengths)

    reference = [sizes(_derived(-1, f"window{k}")) for k in range(FUZZ_WINDOWS)]
    target = median([total for total, _ in reference])
    cap = median([largest for _, largest in reference])
    windows = {}
    for k in range(FUZZ_WINDOWS):
        start = _derived(seed, f"window{k}")
        windows[start] = sizes(start)
    capped = [start for start, (_, largest) in windows.items() if largest <= cap] or list(windows)
    return min(capped, key=lambda start: abs(windows[start][0] - target))


def fuzz_pass(start: int, programs: int, outcome, broken: bool = False) -> Pass:
    """:data:`FUZZ_ANCHOR_SEED`'s program, then ``programs`` generated
    programs from ``start``, through the full oracle (4 levels x 3
    engines, ``verify_each_stage``, one shared in-memory function store
    per campaign); any divergent program is a failure."""
    from repro.fuzz.campaign import CampaignOptions, run_campaign
    from repro.fuzz.gen import GenOptions
    from repro.fuzz.oracle import OracleConfig, config_with_broken_promotion

    result = Pass(wall_s=0.0)
    last = [0.0]

    def progress(report) -> None:
        outcome.attempted += 1
        if report.status in ("ok", "trap"):
            last[0] = result.record(report.program.name, last[0])
        else:
            outcome.fail(f"{report.program.name}: {report.status}")
            last[0] = result.lap()

    def options(seed: int, count: int) -> CampaignOptions:
        return CampaignOptions(
            budget_seconds=math.inf,
            max_programs=count,
            seed=seed,
            batch_size=1,
            keep_going=True,
            reduce=False,
            artifacts_dir=str(WORK / "fuzz-artifacts"),
            oracle=config_with_broken_promotion() if broken else OracleConfig(),
            gen=GenOptions(**FUZZ_SHAPE),
        )

    started = time.perf_counter()
    last[0] = result.lap()
    for seed, count in ((FUZZ_ANCHOR_SEED, 1), (start, programs)):
        run_campaign(options(seed, count), progress=progress)
    result.wall_s = time.perf_counter() - started
    return result


def summarize(passes: list[Pass], outcome) -> None:
    """End-to-end throughput of a batch workload.

    The latency a user of a batch workload waits for is the whole job —
    regenerating the Figures, judging the batch of programs — which is
    operations ÷ ``ok_per_s``.  The job's cost is the sum over operations
    of each one's median cost over the rounds: every round does the same
    work, so a round slowed by load from elsewhere is outvoted operation
    by operation.  An operation's cost is its time in reference loops
    timed right beside it, so a host that slows down for a minute slows
    both; the job is quoted in seconds at reference speed, where one
    loop takes :data:`REFERENCE_LOOP_S`.  The wall-clock figures go to
    the notes."""
    common = set.intersection(*(set(one.costs) for one in passes))
    job_loops = sum(median([one.costs[op] for one in passes]) for op in common)
    job_s = sum(median([one.latencies_ms[op] for one in passes]) for op in common) / 1000.0
    if job_loops > 0:
        outcome.put("ok_per_s", len(common) / (job_loops * REFERENCE_LOOP_S), "1/s")
        outcome.notes["ok_per_wall_s"] = len(common) / job_s
    outcome.notes["job_s"] = job_s
    outcome.notes["reference_loop_ms"] = median([t for one in passes for t in one.reference_s]) * 1000.0
    outcome.notes["round_walls_s"] = [round(one.wall_s, 4) for one in passes]
    outcome.notes["operations"] = {"count": len(common), "rounds": len(passes)}
