"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run FILE.c``
    Compile with one pipeline variant and execute; print the program's
    output and the dynamic operation counts (``--profile`` adds a
    per-loop hot-loop table).
``compare FILE.c``
    Run all four paper variants (Figures 5-7 style) on one file and print
    the comparison table plus a per-variant promotion summary
    (``--profile`` adds per-loop before/after memory-traffic tables).
``explain FILE.c``
    Compile once under the decision ledger and print why each pass did or
    refused to do something — e.g. which call or pointer operation blocked
    a tag's promotion (filter with ``--tag``/``--loop``/``--pass``).
``ir FILE.c``
    Print the optimized IL (use ``--no-opt`` for the raw front-end output).
``suite [PROGRAM ...]``
    Regenerate the paper's Figure 5/6/7 rows for the named workloads
    (default: the whole 14-program suite).
``drift BASELINE.json``
    Run the suite and diff its metrics against a checked-in baseline;
    non-zero exit on gated regressions.  ``--update`` re-baselines.
``bench [PROGRAM ...]``
    Time the benchmark programs under all three interpreter engines and
    write ``BENCH_interp.json`` with per-pair geomean speedups
    (``--quick`` for the CI subset; ``--baseline``/``--tolerance`` gate
    against a committed run).
``fuzz``
    Generative differential testing: random C programs through the
    multi-level oracle (-O0 / full ± promotion / pointer, every engine)
    until the ``--budget`` is spent; divergences are delta-reduced and
    recorded as artifacts (see ``docs/FUZZING.md``).
``serve``
    Run the resident compile-and-execute service: an asyncio TCP server
    (newline-delimited JSON) in front of a persistent warm worker pool,
    with admission control, request coalescing, and the shared result
    cache (see ``docs/SERVING.md``).  SIGTERM/SIGINT drain gracefully.
``loadgen``
    Drive a running server with a configurable concurrency/duration/
    program-mix campaign and write ``BENCH_serve.json``.

Commands that execute programs accept ``--engine threaded|simple|tier2``
to pick the interpreter engine (default: the block-threaded one; all
three produce bit-identical counters and output — ``tier2`` adds the
specializing superblock tier on top of threaded execution).

Global ``-v``/``-vv`` raise log verbosity (INFO/DEBUG); ``-q`` silences
warnings.  The flags are accepted both before and after the subcommand.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .diag.log import setup_logging
from .frontend import compile_c
from .interp import ENGINES, MachineOptions, run_module
from .ir.printer import format_module
from .pipeline import (
    Analysis,
    ExperimentCell,
    PipelineOptions,
    check_outputs_agree,
    compile_source,
    paper_variants,
)


def _pipeline_options(args: argparse.Namespace) -> PipelineOptions:
    return PipelineOptions(
        analysis=Analysis(args.analysis),
        promotion=not args.no_promotion,
        pointer_promotion=args.pointer_promotion,
    )


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="threaded",
        help="interpreter engine (default: threaded; all are bit-identical)",
    )


def _add_variant_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analysis",
        choices=[a.value for a in Analysis],
        default="modref",
        help="interprocedural analysis (default: modref)",
    )
    parser.add_argument(
        "--no-promotion", action="store_true", help="disable register promotion"
    )
    parser.add_argument(
        "--pointer-promotion",
        action="store_true",
        help="enable section 3.3 pointer-based promotion",
    )


def cmd_run(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    options = _pipeline_options(args)
    machine = MachineOptions(
        max_steps=args.max_steps, profile=args.profile, engine=args.engine
    )
    compiled = compile_source(source, options, name=Path(args.file).stem)
    run = run_module(compiled.module, options=machine)
    sys.stdout.write(run.output)
    print(f"[{options.variant_name()}] {run.counters}", file=sys.stderr)
    if args.profile:
        from .diag.profile import format_profile, profile_loops

        rows = profile_loops(compiled.module, run.block_visits or {})
        print(format_profile(rows), file=sys.stderr)
    return run.exit_code


def _promotion_summary(cells: dict[str, ExperimentCell]) -> list[str]:
    """One line per variant: what promotion did, and in which loops."""
    lines = ["promotion summary:"]
    for name, cell in cells.items():
        compiled = cell.compile_result
        if compiled is None or not compiled.options.promotion:
            lines.append(f"  {name:<18} promotion disabled")
            continue
        reports = list(compiled.promotion_reports.values())
        tags = set().union(*(r.promoted_tags for r in reports)) if reports else set()
        refs = sum(r.references_rewritten for r in reports)
        loads = sum(r.loads_inserted for r in reports)
        stores = sum(r.stores_inserted for r in reports)
        lifted = [
            "%s@%s{%s}" % (
                report.function,
                loop.header,
                ",".join(sorted(str(t) for t in loop.lifted)),
            )
            for report in reports
            for loop in report.loops
            if loop.lifted
        ]
        suffix = f"; lifted {' '.join(lifted)}" if lifted else ""
        lines.append(
            f"  {name:<18} {len(tags)} tag(s) promoted, {refs} ref(s) "
            f"rewritten, {loads} load(s) + {stores} store(s) inserted{suffix}"
        )
    return lines


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    from .trace import format_span_summary, span, tracing, write_chrome_trace

    source = Path(args.file).read_text()
    stem = Path(args.file).stem
    machine = MachineOptions(
        max_steps=args.max_steps, profile=args.profile, engine=args.engine
    )
    cells: dict[str, ExperimentCell] = {}
    profiles: dict[str, list] = {}
    trace_groups = {}
    print(f"{'variant':<18} {'total ops':>12} {'loads':>10} {'stores':>10}")
    print("-" * 54)
    for name, options in paper_variants(
        pointer_promotion=args.pointer_promotion
    ).items():

        def build():
            with span("compile", variant=name):
                compiled = compile_source(source, options, name=stem)
            with span("execute", variant=name):
                run = run_module(compiled.module, options=machine)
            return compiled, run

        if args.trace:
            with tracing(name) as trace:
                compiled, run = build()
            trace_groups[name] = trace.events
        else:
            compiled, run = build()
        cells[name] = ExperimentCell(
            variant=name,
            counters=run.counters,
            exit_code=run.exit_code,
            output=run.output,
            compile_result=compiled,
        )
        if args.profile:
            from .diag.profile import profile_loops

            profiles[name] = profile_loops(compiled.module, run.block_visits or {})
        c = run.counters
        print(f"{name:<18} {c.total_ops:>12} {c.loads:>10} {c.stores:>10}")
    check_outputs_agree(cells)
    print()
    for line in _promotion_summary(cells):
        print(line)
    if args.profile:
        from .diag.profile import format_profile_comparison

        for analysis in ("modref", "pointer"):
            before = profiles.get(f"{analysis}/nopromo")
            after = profiles.get(f"{analysis}/promo")
            if before is None or after is None:
                continue
            print(f"\nper-loop memory traffic ({analysis}):", file=sys.stderr)
            print(
                format_profile_comparison(before, after, "nopromo", "promo"),
                file=sys.stderr,
            )
    if args.json:
        payload = {
            name: {
                "counters": cell.counters.as_dict(),
                "exit_code": cell.exit_code,
            }
            for name, cell in cells.items()
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    if args.trace:
        write_chrome_trace(args.trace, trace_groups)
        print(format_span_summary(trace_groups), file=sys.stderr)
    print()
    print("program output (identical across variants):")
    sys.stdout.write(cells["modref/promo"].output)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .diag.ledger import decision_ledger, format_decision_table

    source = Path(args.file).read_text()
    with decision_ledger() as ledger:
        compile_source(source, _pipeline_options(args), name=Path(args.file).stem)
    decisions = ledger.query(
        pass_name=args.pass_name,
        function=args.function,
        loop=args.loop,
        tag=args.tag,
        action=args.action,
    )
    if args.json:
        if decisions:
            print(ledger.jsonl(decisions))
    else:
        print(format_decision_table(decisions))
    return 0


def cmd_ir(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    if args.no_opt:
        module = compile_c(source, name=Path(args.file).stem)
    else:
        module = compile_source(
            source, _pipeline_options(args), name=Path(args.file).stem
        ).module
    sys.stdout.write(format_module(module))
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .harness import METRICS, format_figure
    from .runner import ResultCache
    from .runner.report import run_suite_report, write_suite_json
    from .trace import format_span_summary, write_chrome_trace
    from .workloads import workload_names

    names = args.programs or workload_names()
    unknown = sorted(set(names) - set(workload_names()))
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        print(f"available: {workload_names()}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    fn_store = None
    if not args.no_cache:
        from .inccomp.store import FN_SUBDIR, FunctionStore

        fn_store = FunctionStore(Path(args.cache_dir) / FN_SUBDIR)
    if args.clear_cache and cache is not None:
        removed = cache.clear()
        fn_removed = fn_store.clear() if fn_store is not None else 0
        print(
            f"cache cleared ({removed} cells, {fn_removed} functions)",
            file=sys.stderr,
        )

    def progress(spec, outcome) -> None:
        if outcome.ok:
            status = "cached" if outcome.from_cache else f"{outcome.seconds:.2f}s"
        else:
            status = f"{outcome.kind.upper()}: {outcome.message}"
        print(f"  {spec.workload:<12} {spec.variant:<16} {status}", file=sys.stderr)

    report = run_suite_report(
        names,
        pointer_promotion=args.pointer_promotion,
        max_steps=args.max_steps,
        engine=args.engine,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        collect_trace=bool(args.trace),
        progress=progress,
        fn_store=fn_store,
    )
    for metric in METRICS:
        print(format_figure(report.results, metric))
        print()
    for failure in report.failures:
        print(
            f"FAILED {failure.workload}[{failure.variant}]: {failure.kind} "
            f"after {failure.attempts} attempt(s): {failure.message}",
            file=sys.stderr,
        )
    for problem in report.disagreements:
        print(f"DISAGREEMENT {problem}", file=sys.stderr)
    if cache is not None:
        print(
            f"cache: {report.cache_hits} hits, {report.cache_misses} misses",
            file=sys.stderr,
        )
    print(f"suite: {report.seconds:.2f}s with {report.jobs} job(s)", file=sys.stderr)
    if args.json:
        write_suite_json(args.json, report)
    if args.trace:
        groups = report.trace_groups()
        write_chrome_trace(args.trace, groups)
        print(format_span_summary(groups), file=sys.stderr)
    return report.exit_code()


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        QUICK_PROGRAMS,
        bench_interpreters,
        check_regression,
        format_bench,
        load_bench_json,
        write_bench_json,
    )
    from .workloads import workload_names

    names = args.programs or (list(QUICK_PROGRAMS) if args.quick else None)
    if names:
        unknown = sorted(set(names) - set(workload_names()))
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            print(f"available: {workload_names()}", file=sys.stderr)
            return 2
    if args.compile:
        import json as json_mod

        from .inccomp.bench import (
            bench_compile,
            check_compile_gate,
            format_compile_bench,
        )

        payload = bench_compile(names)
        print(format_compile_bench(payload))
        out = args.out if args.out != "BENCH_interp.json" else "BENCH_compile.json"
        Path(out).write_text(json_mod.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
        problems = check_compile_gate(payload, args.min_speedup)
        for problem in problems:
            print(f"compile bench gate: {problem}", file=sys.stderr)
        return 1 if problems else 0
    baseline = None
    if args.baseline:
        try:
            baseline = load_bench_json(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    payload = bench_interpreters(
        names, repeats=args.repeats, max_steps=args.max_steps
    )
    print(format_bench(payload))
    write_bench_json(args.out, payload)
    print(f"wrote {args.out}", file=sys.stderr)
    if baseline is not None:
        failures = check_regression(payload, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"bench regression: {failure}", file=sys.stderr)
            return 1
        print(
            f"no regression vs {args.baseline} "
            f"(tolerance {args.tolerance:g}%)",
            file=sys.stderr,
        )
    return 0


def _parse_fuzz_seed(text: str) -> int:
    """Decimal seeds pass through; anything else (e.g. a git SHA) hashes
    to a stable 63-bit integer so CI can seed with ``$GITHUB_SHA``."""
    try:
        return int(text, 10)
    except ValueError:
        import hashlib

        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import CampaignOptions, OracleConfig, run_campaign

    options = CampaignOptions(
        budget_seconds=args.budget,
        max_programs=args.programs,
        seed=_parse_fuzz_seed(args.seed),
        jobs=args.jobs,
        batch_size=args.batch_size,
        keep_going=args.keep_going,
        reduce=not args.no_reduce,
        corpus_dir=args.corpus_dir,
        artifacts_dir=args.artifacts,
        oracle=OracleConfig(max_steps=args.max_steps),
    )

    def progress(report) -> None:
        if report.status != "ok" or args.verbose:
            print(
                f"  {report.program.name:<14} {report.status}"
                + (
                    ": " + "; ".join(d.kind for d in report.divergences)
                    if report.divergences
                    else ""
                ),
                file=sys.stderr,
            )
        for warning in report.warnings:
            print(f"  {report.program.name:<14} note: {warning}", file=sys.stderr)

    result = run_campaign(options, progress=progress)
    print(result.summary())
    for artifact in result.artifact_dirs:
        print(f"divergence artifact: {artifact}", file=sys.stderr)
    return result.exit_code()


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import ReproServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline,
        recycle_after=args.recycle_after,
        cache_dir=None if args.no_cache else args.cache_dir,
        default_max_steps=args.max_steps,
        trace_sample=args.trace_sample,
        trace_export=args.trace_export,
        flight_capacity=args.flight_capacity,
        artifacts_dir=args.artifacts_dir,
        drain_timeout_s=args.drain_timeout,
        chaos_plan=args.chaos_plan,
    )

    if config.chaos_plan is not None:
        from .chaos import FaultPlan

        try:
            config.chaos_plan = FaultPlan.parse(config.chaos_plan)
        except ValueError as error:
            print(f"bad --chaos-plan: {error}", file=sys.stderr)
            return 2

    async def main() -> int:
        server = ReproServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.drain())
            )
        chaos_note = (
            f", chaos {config.chaos_plan.spec()}"
            if config.chaos_plan is not None
            else ""
        )
        print(
            f"repro-serve listening on {config.host}:{server.port} "
            f"({config.workers} workers, queue limit {config.queue_limit}, "
            f"cache {'off' if config.cache_dir is None else config.cache_dir}"
            f"{chaos_note})",
            file=sys.stderr,
            flush=True,
        )
        await server.wait_drained()
        print("repro-serve drained, exiting", file=sys.stderr)
        return 0

    return asyncio.run(main())


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.client import (
        LoadgenConfig,
        PAPER_VARIANTS,
        format_loadgen,
        run_loadgen,
        wait_for_server,
    )
    from .workloads import workload_names

    programs = tuple(args.programs) if args.programs else None
    if programs:
        unknown = sorted(set(programs) - set(workload_names()))
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            print(f"available: {workload_names()}", file=sys.stderr)
            return 2
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        duration_s=args.duration,
        requests=args.requests,
        programs=programs or LoadgenConfig.programs,
        variants=PAPER_VARIANTS,
        max_steps=args.max_steps,
        deadline_s=args.deadline,
        warmup=not args.no_warmup,
        drain_on_finish=args.drain,
        out=args.out,
        trace_sample=args.trace_sample,
        cold_fraction=args.cold_fraction,
        engine=args.engine,
        resilient=args.resilient,
        hedge=args.hedge,
    )

    async def main() -> int:
        if args.wait:
            await wait_for_server(config.host, config.port, args.wait)
        payload = await run_loadgen(config)
        print(format_loadgen(payload))
        if config.out:
            print(f"wrote {config.out}", file=sys.stderr)
        return 1 if payload["totals"]["errors"] else 0

    return asyncio.run(main())


def cmd_chaos(args: argparse.Namespace) -> int:
    from .chaos import SITES, SoakConfig, format_soak_report, run_soak

    if args.sites:
        unknown = sorted(set(args.sites) - set(SITES))
        if unknown:
            print(f"unknown chaos sites: {unknown}", file=sys.stderr)
            print(f"available: {list(SITES)}", file=sys.stderr)
            return 2
    config = SoakConfig(
        budget=args.budget,
        seed=_parse_fuzz_seed(args.seed),
        rate=args.rate,
        sites=tuple(args.sites) if args.sites else SITES,
        workers=args.workers,
        deadline_s=args.deadline,
        max_steps=args.max_steps,
        artifacts_dir=args.artifacts,
        out=args.out,
    )
    report = run_soak(config)
    print(format_soak_report(report))
    if config.out:
        print(f"wrote {config.out}", file=sys.stderr)
    if not report["passed"]:
        print(
            f"replay with: repro chaos soak --budget {config.budget} "
            f"--seed {report['seed']} --rate {config.rate}",
            file=sys.stderr,
        )
    return 0 if report["passed"] else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from .trace import group_traces, load_spans, trace_root
    from .trace.report import (
        filter_traces,
        format_critical_path,
        format_slow,
        format_top,
        format_trace_list,
        format_trace_tree,
    )

    try:
        events = load_spans(args.file)
    except FileNotFoundError:
        print(f"no span stream at {args.file}", file=sys.stderr)
        return 2
    groups = filter_traces(
        group_traces(events),
        trace_id=args.trace_id,
        op=args.op,
        program=args.program,
    )
    if not groups:
        print("no traces match", file=sys.stderr)
        return 1

    if args.mode == "show":
        if args.trace_id is not None and len(groups) == 1:
            print(format_trace_tree(next(iter(groups.values()))))
        else:
            print(format_trace_list(groups, limit=args.limit))
    elif args.mode == "top":
        print(
            format_top(
                groups, limit=args.limit,
                name=args.span_name, worker=args.worker,
            )
        )
    elif args.mode == "slow":
        print(format_slow(groups, limit=args.limit))
    else:  # critical-path
        ranked = sorted(
            groups.values(),
            key=lambda evts: -(r.seconds if (r := trace_root(evts)) else 0.0),
        )
        count = 1 if args.trace_id is not None else args.limit
        print(
            "\n\n".join(
                format_critical_path(events) for events in ranked[:count]
            )
        )
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    from .diag.drift import (
        compare_cells,
        format_drift_report,
        load_baseline,
        regressions,
        suite_cell_metrics,
        write_baseline,
    )
    from .runner import ResultCache
    from .runner.report import run_suite_report
    from .workloads import workload_names

    names = args.programs or None
    if names:
        unknown = sorted(set(names) - set(workload_names()))
        if unknown:
            print(f"unknown workloads: {unknown}", file=sys.stderr)
            return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    report = run_suite_report(
        names,
        pointer_promotion=args.pointer_promotion,
        max_steps=args.max_steps,
        engine=args.engine,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
    )
    for failure in report.failures:
        print(
            f"FAILED {failure.workload}[{failure.variant}]: {failure.message}",
            file=sys.stderr,
        )
    for problem in report.disagreements:
        print(f"DISAGREEMENT {problem}", file=sys.stderr)
    if not report.ok:
        print("drift: suite itself failed; no comparison done", file=sys.stderr)
        return 1

    current = suite_cell_metrics(report)
    if args.update:
        write_baseline(args.baseline, current)
        print(f"baseline updated: {args.baseline} ({len(current)} cells)")
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(
            f"no baseline at {args.baseline}; create one with "
            f"`repro drift {args.baseline} --update`",
            file=sys.stderr,
        )
        return 2
    if names:
        # a partial run can only be judged against the matching subset
        prefixes = tuple(f"{name}/" for name in names)
        baseline = {
            cell: metrics
            for cell, metrics in baseline.items()
            if cell.startswith(prefixes)
        }
    drifts = compare_cells(baseline, current, tolerance_pct=args.tolerance)
    print(format_drift_report(drifts, args.tolerance))
    return 1 if regressions(drifts) else 0


def _logging_flags(parser: argparse.ArgumentParser, root: bool) -> None:
    # root gets real defaults; subcommands SUPPRESS theirs so a value the
    # root parser already counted is not reset to zero
    parser.add_argument(
        "-v", "--verbose", action="count",
        default=0 if root else argparse.SUPPRESS,
        help="-v for INFO, -vv for DEBUG logging (on stderr)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        default=False if root else argparse.SUPPRESS,
        help="errors only",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Register promotion reproduction (Cooper & Lu, PLDI 1997)",
    )
    _logging_flags(parser, root=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _logging_flags(p, root=False)
        return p

    p_run = add_command("run", "compile and execute a C file")
    p_run.add_argument("file")
    p_run.add_argument("--max-steps", type=int, default=500_000_000)
    p_run.add_argument("--profile", action="store_true",
                       help="count block executions; print a hot-loop table")
    _add_engine_flag(p_run)
    _add_variant_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = add_command("compare", "run all four paper variants")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--max-steps", type=int, default=500_000_000)
    p_cmp.add_argument("--pointer-promotion", action="store_true")
    p_cmp.add_argument("--profile", action="store_true",
                       help="per-loop before/after memory-traffic tables")
    p_cmp.add_argument("--json", metavar="FILE",
                       help="write per-variant counters as JSON")
    p_cmp.add_argument("--trace", metavar="FILE",
                       help="write a Chrome-trace JSON of per-pass timings")
    _add_engine_flag(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = add_command("explain", "show why passes made their decisions")
    p_exp.add_argument("file")
    p_exp.add_argument("--pass", dest="pass_name", metavar="PASS",
                       help="only decisions from this pass (e.g. promotion)")
    p_exp.add_argument("--function", help="only decisions in this function")
    p_exp.add_argument("--loop", help="only decisions about this loop header")
    p_exp.add_argument("--tag", help="only decisions about this memory tag")
    p_exp.add_argument("--action", help="only this action (promoted, blocked...)")
    p_exp.add_argument("--json", action="store_true",
                       help="JSONL instead of the table")
    _add_variant_flags(p_exp)
    p_exp.set_defaults(func=cmd_explain)

    p_ir = add_command("ir", "print the IL for a C file")
    p_ir.add_argument("file")
    p_ir.add_argument("--no-opt", action="store_true",
                      help="raw front-end output, no analysis/optimization")
    _add_variant_flags(p_ir)
    p_ir.set_defaults(func=cmd_ir)

    p_suite = add_command("suite", "regenerate Figure 5/6/7 rows")
    p_suite.add_argument("programs", nargs="*")
    p_suite.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = inline, serial)")
    p_suite.add_argument("--max-steps", type=int, default=50_000_000)
    p_suite.add_argument("--pointer-promotion", action="store_true",
                         help="enable section 3.3 pointer-based promotion")
    p_suite.add_argument("--timeout", type=float, default=None,
                         help="per-cell seconds budget (jobs > 1 only)")
    p_suite.add_argument("--no-cache", action="store_true",
                         help="always recompute, don't touch the result cache")
    p_suite.add_argument("--cache-dir", default=".repro-cache",
                         help="result cache location (default: .repro-cache)")
    p_suite.add_argument("--clear-cache", action="store_true",
                         help="invalidate every cached cell before running")
    p_suite.add_argument("--json", metavar="FILE",
                         help="write the machine-readable suite.json")
    p_suite.add_argument("--trace", metavar="FILE",
                         help="write a Chrome-trace JSON of per-pass timings")
    _add_engine_flag(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_bench = add_command(
        "bench", "time the interpreter engines and write BENCH_interp.json"
    )
    p_bench.add_argument("programs", nargs="*",
                         help="workload subset (default: all 14)")
    p_bench.add_argument("--quick", action="store_true",
                         help="CI subset: " + " ".join(
                             ("dhrystone", "fft", "mlink", "tsp")))
    p_bench.add_argument("--compile", action="store_true",
                         help="bench compilation instead of interpreters: "
                              "from-scratch vs incremental vs warm "
                              "(writes BENCH_compile.json)")
    p_bench.add_argument("--min-speedup", type=float, default=2.0,
                         metavar="X",
                         help="with --compile: fail unless the one-function-"
                              "edit recompile beats from-scratch by this "
                              "factor (default 2.0)")
    p_bench.add_argument("--repeats", type=int, default=2,
                         help="runs per engine, best wall time wins (default 2)")
    p_bench.add_argument("--max-steps", type=int, default=500_000_000)
    p_bench.add_argument("--out", default="BENCH_interp.json",
                         help="output path (default: BENCH_interp.json)")
    p_bench.add_argument("--baseline", metavar="FILE",
                         help="committed BENCH_interp.json to gate against; "
                              "exit 1 if a per-pair geomean speedup regresses")
    p_bench.add_argument("--tolerance", type=float, default=25.0,
                         metavar="PCT",
                         help="allowed geomean drop vs the baseline before "
                              "failing, in percent (default 25)")
    p_bench.set_defaults(func=cmd_bench)

    p_fuzz = add_command(
        "fuzz", "generative differential testing (random C vs the oracle)"
    )
    p_fuzz.add_argument("--budget", type=float, default=60.0, metavar="SECONDS",
                        help="wall-clock budget; stops starting new batches "
                             "once spent (default 60)")
    p_fuzz.add_argument("--programs", type=int, default=None, metavar="N",
                        help="exact program cap (overrides time for "
                             "deterministic runs)")
    p_fuzz.add_argument("--seed", default="0",
                        help="base seed; decimal int or any string "
                             "(hashed), e.g. a git SHA (default 0)")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the oracle cells "
                             "(1 = inline)")
    p_fuzz.add_argument("--batch-size", type=int, default=16,
                        help="programs per scheduler batch (default 16)")
    p_fuzz.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="promote reduced reproducers into this corpus "
                             "directory (e.g. tests/corpus)")
    p_fuzz.add_argument("--artifacts", default="fuzz-artifacts", metavar="DIR",
                        help="divergence artifact directory "
                             "(default fuzz-artifacts)")
    p_fuzz.add_argument("--keep-going", action="store_true",
                        help="continue fuzzing after a divergence instead "
                             "of stopping at the first")
    p_fuzz.add_argument("--no-reduce", action="store_true",
                        help="skip delta-debugging divergent programs")
    p_fuzz.add_argument("--max-steps", type=int, default=5_000_000,
                        help="interpreter fuel per oracle cell")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_srv = add_command(
        "serve", "run the resident compile-and-execute service"
    )
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7411,
                       help="TCP port (0 = pick a free one; default 7411)")
    p_srv.add_argument("--workers", type=int, default=2,
                       help="persistent worker processes (default 2)")
    p_srv.add_argument("--queue-limit", type=int, default=64,
                       help="admission queue depth before queue_full "
                            "rejections (default 64)")
    p_srv.add_argument("--deadline", type=float, default=120.0,
                       metavar="SECONDS",
                       help="per-request deadline cap (default 120)")
    p_srv.add_argument("--recycle-after", type=int, default=200, metavar="N",
                       help="recycle each worker after N requests "
                            "(default 200)")
    p_srv.add_argument("--max-steps", type=int, default=50_000_000,
                       help="default interpreter fuel per cell")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="don't read or write the result cache")
    p_srv.add_argument("--cache-dir", default=".repro-cache",
                       help="result cache location (default: .repro-cache)")
    p_srv.add_argument("--trace-sample", type=float, default=0.0,
                       metavar="RATE",
                       help="head-sample this fraction of work requests "
                            "for tracing (0..1, default 0 = only "
                            "client-requested traces)")
    p_srv.add_argument("--trace-export", default=None, metavar="FILE",
                       help="append every exported span to this JSONL "
                            "stream (read by `repro trace`)")
    p_srv.add_argument("--flight-capacity", type=int, default=512,
                       metavar="N",
                       help="flight-recorder ring size in spans "
                            "(default 512)")
    p_srv.add_argument("--artifacts-dir", default="serve-artifacts",
                       help="crash-bundle directory (default: "
                            "serve-artifacts)")
    p_srv.add_argument("--drain-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="hard-stop the pool (and dump the flight "
                            "recorder) if a drain exceeds this")
    p_srv.add_argument("--chaos-plan", default=None, metavar="SPEC",
                       help="deterministic fault-injection plan, e.g. "
                            "'seed=0,rate=0.05' or "
                            "'seed=7,pool.crash_during=0.2,limit=3' "
                            "(see docs/CHAOS.md)")
    p_srv.set_defaults(func=cmd_serve)

    p_lg = add_command(
        "loadgen", "drive a running server and write BENCH_serve.json"
    )
    p_lg.add_argument("--host", default="127.0.0.1")
    p_lg.add_argument("--port", type=int, default=7411)
    p_lg.add_argument("--concurrency", type=int, default=8,
                      help="concurrent connections (default 8)")
    p_lg.add_argument("--duration", type=float, default=10.0,
                      metavar="SECONDS",
                      help="measured campaign length (default 10)")
    p_lg.add_argument("--requests", type=int, default=None, metavar="N",
                      help="exact request count (overrides --duration)")
    p_lg.add_argument("--programs", nargs="*", default=None,
                      help="workload mix (default: the bench --quick four)")
    p_lg.add_argument("--max-steps", type=int, default=50_000_000)
    p_lg.add_argument("--deadline", type=float, default=30.0,
                      metavar="SECONDS",
                      help="per-request deadline (default 30)")
    p_lg.add_argument("--no-warmup", action="store_true",
                      help="skip the cache-priming pass over the mix")
    p_lg.add_argument("--wait", type=float, default=None, metavar="SECONDS",
                      help="wait up to SECONDS for the server to come up")
    p_lg.add_argument("--drain", action="store_true",
                      help="send a drain request after the campaign")
    p_lg.add_argument("--out", default="BENCH_serve.json",
                      help="output path (default: BENCH_serve.json)")
    p_lg.add_argument("--trace-sample", type=float, default=0.0,
                      metavar="RATE",
                      help="request traces for this fraction of the "
                           "campaign and report per-request latency "
                           "breakdowns (0..1, default 0)")
    p_lg.add_argument("--cold-fraction", type=float, default=0.0,
                      metavar="RATE",
                      help="send this fraction of requests with "
                           "no_cache: true so they bypass the result "
                           "cache and do real compile+execute work "
                           "(0..1, default 0); cold requests are always "
                           "traced when --trace-sample is set")
    p_lg.add_argument("--engine", default="threaded",
                      choices=ENGINES,
                      help="interpreter engine for the mix cells "
                           "(default threaded)")
    p_lg.add_argument("--resilient", action="store_true",
                      help="drive through the ResilientClient: retries "
                           "with backoff, per-host circuit breaker, "
                           "idempotency keys; adds a resilience section "
                           "to BENCH_serve.json")
    p_lg.add_argument("--hedge", action="store_true",
                      help="with --resilient: fire a backup request "
                           "once the primary exceeds the rolling p95")
    p_lg.set_defaults(func=cmd_loadgen)

    p_chaos = add_command(
        "chaos", "deterministic fault-injection campaigns against serve"
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_mode", required=True)
    p_soak = chaos_sub.add_parser(
        "soak",
        help="run a seeded soak campaign and assert the invariant "
             "contract; writes CHAOS_REPORT.json",
    )
    p_soak.add_argument("--budget", type=int, default=60, metavar="N",
                        help="number of probes (default 60)")
    p_soak.add_argument("--seed", default="0",
                        help="fault-schedule seed; decimal, or any "
                             "string (e.g. a git SHA) hashed to one")
    p_soak.add_argument("--rate", type=float, default=0.05,
                        help="per-site injection rate (default 0.05)")
    p_soak.add_argument("--sites", nargs="*", default=None,
                        help="sites to enable (default: all)")
    p_soak.add_argument("--workers", type=int, default=2)
    p_soak.add_argument("--deadline", type=float, default=5.0,
                        metavar="SECONDS",
                        help="per-probe deadline (default 5)")
    p_soak.add_argument("--max-steps", type=int, default=2_000_000,
                        help="interpreter fuel per probe cell "
                             "(default 2M: fast but real work)")
    p_soak.add_argument("--artifacts", default=None, metavar="DIR",
                        help="keep crash bundles here (default: temp "
                             "dir, preserved only on failure)")
    p_soak.add_argument("--out", default="CHAOS_REPORT.json",
                        help="report path (default: CHAOS_REPORT.json)")
    p_soak.set_defaults(func=cmd_chaos)

    p_tr = add_command(
        "trace", "inspect an exported span stream (JSONL)"
    )
    p_tr.add_argument("mode",
                      choices=("show", "top", "slow", "critical-path"),
                      help="show: list traces (or one tree with "
                           "--trace-id); top: heaviest spans; slow: "
                           "slowest traces with attribution; "
                           "critical-path: heaviest chain per trace")
    p_tr.add_argument("file",
                      help="span JSONL stream (repro serve --trace-export)")
    p_tr.add_argument("--trace-id", default=None,
                      help="select one trace (id prefix)")
    p_tr.add_argument("--op", default=None,
                      help="only traces for this request op (run, "
                           "suite_cell, compile, explain)")
    p_tr.add_argument("--program", default=None,
                      help="only traces that ran this workload")
    p_tr.add_argument("--pass", dest="span_name", default=None,
                      metavar="NAME",
                      help="top: only spans with this name (e.g. "
                           "promotion, interp.run)")
    p_tr.add_argument("--worker", default=None,
                      help="top: only spans from this worker "
                           "(e.g. serve, w0)")
    p_tr.add_argument("-n", "--limit", type=int, default=10,
                      help="rows / traces to show (default 10)")
    p_tr.set_defaults(func=cmd_trace)

    p_drift = add_command("drift", "gate suite metrics against a baseline")
    p_drift.add_argument("baseline",
                         help="baseline JSON (e.g. benchmarks/baseline.json)")
    p_drift.add_argument("--update", action="store_true",
                         help="rewrite the baseline from this run and exit 0")
    p_drift.add_argument("--tolerance", type=float, default=0.0, metavar="PCT",
                         help="ignore gated drift within this percent (default 0)")
    p_drift.add_argument("--programs", nargs="*", default=None,
                         help="workload subset (baseline is filtered to match)")
    p_drift.add_argument("--jobs", type=int, default=1)
    p_drift.add_argument("--max-steps", type=int, default=50_000_000)
    p_drift.add_argument("--pointer-promotion", action="store_true")
    p_drift.add_argument("--timeout", type=float, default=None)
    p_drift.add_argument("--no-cache", action="store_true",
                         help="always recompute, don't touch the result cache")
    p_drift.add_argument("--cache-dir", default=".repro-cache",
                         help="result cache location (default: .repro-cache)")
    _add_engine_flag(p_drift)
    p_drift.set_defaults(func=cmd_drift)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(-1 if args.quiet else args.verbose)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
