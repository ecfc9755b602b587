"""perfbench — end-to-end and per-layer benchmark of the repro system.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper_figures``, ``fuzz_oracle``, ``serve_mixed`` (see
``perfbench/README.md``).  With ``--trace 0`` the last stdout line is a
JSON record of every end-to-end metric; with ``--trace 1`` the workload
runs once untraced and once with the layer wrappers installed, and the
record carries every per-layer metric instead.  The exit code is 0 only
when every correctness check passed.

``--quick`` shrinks every workload to a smoke-test size and
``--wrong-expected`` corrupts one expected value (the check must then
fail); both exist for ``perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import batch, layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    WORK, BenchError, Outcome, bootstrap, code_digest, proc_hwm_mb,
)

WORKLOADS = ("paper_figures", "fuzz_oracle", "serve_mixed")

#: counters the traced run must reproduce exactly for a fixed seed
DETERMINISTIC = (
    "interp.ops",
    "interp.decoded_blocks",
    "regalloc.interference_builds",
    "inccomp.hits",
    "inccomp.misses",
    "opt.promotion.tags_promoted",
    "serve.executed",
)


def per_layer_names() -> list[str]:
    from perfbench.serve_load import SERVE_LAYER

    return [
        *layers.TIME_METRICS,
        *layers.COUNT_METRICS,
        "inccomp.hit_ratio",
        *SERVE_LAYER,
        "trace.overhead",
    ]


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def load_expected(args) -> dict[str, dict]:
    """The Figures baseline; ``--wrong-expected`` bumps one cell's
    ``total_ops`` so that the check against it must fail."""
    expected = batch.load_baseline()
    if args.wrong_expected:
        key = next(iter(expected))
        expected[key] = dict(expected[key], total_ops=expected[key]["total_ops"] + 1)
    return expected


def _passes(run_pass, seconds: float) -> list[batch.Pass]:
    """:data:`batch.MIN_PASSES` whole passes, then more while another
    one still fits in ``seconds``."""
    started = time.perf_counter()
    passes = [run_pass() for _ in range(batch.MIN_PASSES)]
    while time.perf_counter() - started + passes[-1].wall_s <= seconds:
        passes.append(run_pass())
    return passes


def batch_workload(args, outcome: Outcome) -> dict[str, float]:
    """``paper_figures`` / ``fuzz_oracle``; returns per-layer numbers
    when traced."""
    if args.workload == "paper_figures":
        names = batch.QUICK_FIGURE_PROGRAMS if args.quick else batch.FIGURE_PROGRAMS
        expected = load_expected(args)
        setup_modules = ["repro.runner.report"]
        run_pass = lambda: batch.figures_pass(names, outcome, expected)  # noqa: E731
        group_of = None
    else:
        programs = batch.QUICK_FUZZ_PROGRAMS if args.quick else batch.FUZZ_PROGRAMS
        if args.wrong_expected:
            programs = batch.FUZZ_BROKEN_PROGRAMS
        start = batch.fuzz_window(args.seed, programs)
        setup_modules = ["repro.fuzz.campaign"]
        run_pass = lambda: batch.fuzz_pass(  # noqa: E731
            start, programs, outcome, broken=args.wrong_expected
        )
        group_of = lambda spec: spec.workload  # noqa: E731
        outcome.notes["fuzz_first_seed"] = start

    batch.warm_up()
    if not args.trace:
        samples = batch.measure_setup(setup_modules)
        outcome.put("setup_s", batch.median(samples), "s")
        outcome.notes["setup_samples_s"] = samples
        passes = _passes(run_pass, args.seconds)
        outcome.put("peak_rss_mb", proc_hwm_mb(), "MB")
        batch.summarize(passes, outcome)
        return {}
    plain = run_pass()
    tracer = layers.Tracer(group_of).install()
    try:
        traced = run_pass()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = traced.wall_s / plain.wall_s - 1.0
    outcome.notes["spans"] = len(tracer.spans)
    outcome.notes["groups"] = tracer.groups()
    _write_spans(args, tracer)
    return metrics


def _write_spans(args, tracer: layers.Tracer) -> None:
    path = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"columns": ["name", "start", "end", "parent", "group"],
                    "spans": tracer.spans})
    )


def serve_workload(args, outcome: Outcome) -> dict[str, float]:
    from perfbench import serve_load

    expected = load_expected(args)
    subset = batch.QUICK_FIGURE_PROGRAMS if args.quick else batch.FIGURE_PROGRAMS
    return asyncio.run(
        serve_load.run_serve(args.seed, args.seconds, bool(args.trace), outcome,
                             expected, subset)
    )


def check_repeat(args, metrics: dict[str, float], outcome: Outcome) -> None:
    """Deterministic counters must repeat exactly across traced runs of
    the same code, workload, seed and size; the record is kept beside
    the host metadata for the next run to compare against."""
    from repro.diag.host import host_metadata

    record = {
        "code": code_digest(),
        "quick": args.quick,
        "counts": {name: metrics.get(name, 0) for name in DETERMINISTIC},
        "host": host_metadata(),
        "metrics": metrics,
    }
    path = WORK / "traced" / f"{args.workload}-seed{args.seed}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        same_run = all(previous.get(k) == record[k] for k in ("code", "quick"))
        if same_run and previous["counts"] != record["counts"]:
            outcome.fail(
                f"deterministic counters changed: {previous['counts']} -> {record['counts']}"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an error, so every server and worker the run
    started is stopped on the way out."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wrong-expected", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    try:
        bootstrap()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    outcome = Outcome()
    if args.workload == "serve_mixed":
        metrics = serve_workload(args, outcome)
    else:
        metrics = batch_workload(args, outcome)

    if args.trace:
        check_repeat(args, metrics, outcome)
        names = per_layer_names()
        outcome.metrics = {name: (float(metrics.get(name, 0.0)), unit_of(name)) for name in names}
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, note in sorted(outcome.notes.items()):
        print(f"# {name}: {json.dumps(note)}")
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
