"""Job scheduler: fan experiment cells out over a process pool.

Each ``(workload, variant)`` cell is an independent job — it carries its
own source text, so injected or synthetic workloads run in worker
processes without any registry coordination.  The scheduler provides:

* **parallelism** — ``jobs > 1`` executes cells on a
  :class:`~concurrent.futures.ProcessPoolExecutor`; ``jobs <= 1`` runs
  inline in-process (no pickling, deterministic, and the full
  ``CompileResult`` stays available to the caller via the slim result's
  ``compile_result`` field);
* **graceful degradation** — a cell that raises or times out yields a
  structured :class:`CellFailure` instead of killing the suite; output
  agreement is checked *after* the join, over succeeded cells only (see
  :mod:`repro.runner.report`);
* **bounded retries** — crashed cells (including a worker process dying
  and taking the pool with it) are resubmitted to a fresh pool up to
  ``retries`` extra times;
* **caching** — when a :class:`~repro.runner.cache.ResultCache` is given,
  hits skip execution entirely and successes are written back;
* **telemetry** — with ``collect_trace=True`` every cell records per-pass
  spans (see :mod:`repro.trace`) that travel back to the parent
  as plain dicts for merging into one Chrome trace.

Timeouts are enforced at the join: the parent waits at most ``timeout``
seconds per cell, so a cell is guaranteed *at least* that budget (cells
joined later get more, since all cells run concurrently).  A timed-out
worker is abandoned, not killed — the interpreter's ``max_steps`` fuel
bounds how long it can linger.  Inline execution cannot be preempted, so
``timeout`` only applies when ``jobs > 1``.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Union

from ..diag.log import get_logger
from ..diag.metrics import metrics_session
from ..errors import ReproError
from ..inccomp.store import FunctionStore
from ..interp import Counters, MachineOptions
from ..pipeline import (
    CompileResult,
    PipelineOptions,
    compile_and_run,
    compile_source,
    run_compiled,
)
from ..trace import TraceContext, tracing
from .cache import ResultCache, cell_key

_log = get_logger(__name__)

__all__ = [
    "CellData",
    "CellFailure",
    "CellOutcome",
    "CellSpec",
    "compile_memo_key",
    "execute_cell",
    "run_cells",
    "spec_cache_key",
]


@dataclass(frozen=True)
class CellSpec:
    """One schedulable job: compile ``source`` with ``options`` and run it."""

    workload: str
    variant: str
    source: str
    options: PipelineOptions
    machine: MachineOptions
    defines: tuple[tuple[str, str], ...] = ()

    @property
    def key(self) -> tuple[str, str]:
        return (self.workload, self.variant)


@dataclass
class CellData:
    """A successful cell — slim and picklable (no IR attached)."""

    workload: str
    variant: str
    counters: Counters
    exit_code: int
    output: str
    seconds: float
    from_cache: bool = False
    trace_events: list[dict] = field(default_factory=list)
    #: metrics the passes and interpreter published while this cell ran
    #: (see :mod:`repro.diag.metrics`) — the drift gate's raw material
    metrics: dict[str, float] = field(default_factory=dict)
    #: populated only for inline (jobs<=1, cache-miss) execution
    compile_result: CompileResult | None = None

    ok = True

    def cache_payload(self) -> dict:
        return {
            "counters": self.counters.as_dict(),
            "exit_code": self.exit_code,
            "output": self.output,
            "seconds": self.seconds,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_cache_payload(cls, spec: CellSpec, payload: dict) -> "CellData":
        return cls(
            workload=spec.workload,
            variant=spec.variant,
            counters=Counters(**payload["counters"]),
            exit_code=int(payload["exit_code"]),
            output=payload["output"],
            seconds=float(payload["seconds"]),
            from_cache=True,
            metrics=dict(payload.get("metrics", {})),
        )


@dataclass
class CellFailure:
    """A cell that crashed or timed out; the suite keeps going."""

    workload: str
    variant: str
    kind: str  # "crash" | "timeout"
    message: str
    attempts: int
    seconds: float = 0.0

    ok = False

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
        }


CellOutcome = Union[CellData, CellFailure]


def execute_cell(
    spec: CellSpec,
    collect_trace: bool = False,
    keep_compile_result: bool = False,
    compile_cache: dict[str, CompileResult] | None = None,
    trace_ctx: TraceContext | None = None,
    trace_worker: str | None = None,
    fn_store: FunctionStore | None = None,
) -> CellData:
    """Compile and run one cell (runs in the worker process).

    ``keep_compile_result`` attaches the full IR-bearing
    :class:`CompileResult`; pooled runs leave it off so only the slim
    counters/output payload crosses the process boundary.

    ``compile_cache`` (a plain dict keyed by :func:`compile_memo_key`)
    lets sibling cells that differ only in :class:`MachineOptions` — the
    fuzz oracle's engine pairs — share one compilation.  Running never
    mutates the compiled module, so reuse is sound; the compile-time
    metrics land only in the first sharing cell's snapshot.

    ``trace_ctx`` joins this cell to a distributed trace: spans are
    stamped with the context's trace id, parented under its
    ``parent_id``, and returned in ``trace_events`` (with identity and
    wall-clock fields) for the requesting process to adopt.  It implies
    ``collect_trace``.
    """
    started = time.perf_counter()
    with metrics_session() as registry:
        if collect_trace or trace_ctx is not None:
            with tracing(
                f"{spec.workload}:{spec.variant}",
                context=trace_ctx,
                worker=(
                    trace_worker or f"pid{os.getpid()}"
                    if trace_ctx is not None
                    else None
                ),
            ) as trace:
                if trace_ctx is not None:
                    # a live ledger is what makes _pass_span tag each
                    # pass with its decision count in exported spans;
                    # plain --trace runs skip it to keep that output
                    # byte-identical with the pre-tracing format
                    from ..diag.ledger import decision_ledger

                    with decision_ledger():
                        cell = _compile_and_run(spec, compile_cache, fn_store)
                else:
                    cell = _compile_and_run(spec, compile_cache, fn_store)
            events = [event.as_dict() for event in trace.events]
        else:
            cell = _compile_and_run(spec, compile_cache, fn_store)
            events = []
    _log.debug(
        "cell %s[%s] done in %.3fs", spec.workload, spec.variant,
        time.perf_counter() - started,
    )
    return CellData(
        workload=spec.workload,
        variant=spec.variant,
        counters=cell.counters,
        exit_code=cell.exit_code,
        output=cell.output,
        seconds=time.perf_counter() - started,
        trace_events=events,
        metrics=registry.as_dict(),
        compile_result=cell.compile_result if keep_compile_result else None,
    )


def _compile_and_run(
    spec: CellSpec,
    compile_cache: dict[str, CompileResult] | None = None,
    fn_store: FunctionStore | None = None,
):
    if compile_cache is None:
        return compile_and_run(
            spec.source,
            spec.options,
            name=spec.workload,
            defines=dict(spec.defines) or None,
            machine_options=spec.machine,
            fn_store=fn_store,
        )
    key = compile_memo_key(spec)
    compiled = compile_cache.get(key)
    if compiled is None:
        compiled = compile_source(
            spec.source,
            spec.options,
            name=spec.workload,
            defines=dict(spec.defines) or None,
            fn_store=fn_store,
        )
        compile_cache[key] = compiled
    return run_compiled(compiled, spec.machine)


def spec_cache_key(spec: CellSpec) -> str:
    return cell_key(spec.source, dict(spec.defines), spec.options, spec.machine)


def compile_memo_key(spec: CellSpec) -> str:
    """Machine-independent cache key: everything that shapes the compiled
    module but nothing about how it will be interpreted."""
    return cell_key(spec.source, dict(spec.defines), spec.options, None)


ProgressFn = Callable[[CellSpec, CellOutcome], None]


def run_cells(
    specs: list[CellSpec],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    cache: ResultCache | None = None,
    collect_trace: bool = False,
    progress: ProgressFn | None = None,
    compile_cache: dict[str, CompileResult] | None = None,
    fn_store: FunctionStore | None = None,
) -> dict[tuple[str, str], CellOutcome]:
    """Run every cell, returning an outcome per ``(workload, variant)``.

    ``compile_cache`` enables compile sharing between cells that differ
    only in machine options — inline (``jobs <= 1``) execution only,
    since compiled modules do not cross process boundaries.  The caller
    owns the dict (and its memory): pass a fresh ``{}`` per batch to keep
    it bounded.

    ``fn_store`` enables incremental per-function compilation (see
    :mod:`repro.inccomp`): cells that miss ``cache`` still reuse every
    optimized function body whose content key is unchanged.  Pooled runs
    ship the store to each worker by pickle, so only a disk-backed store
    (``root`` set) actually shares entries across processes; a
    memory-only store degrades to per-submission scratch space.
    """
    outcomes: dict[tuple[str, str], CellOutcome] = {}
    by_key = {spec.key: spec for spec in specs}
    if len(by_key) != len(specs):
        raise ValueError("duplicate (workload, variant) cells in schedule")

    def finish(spec: CellSpec, outcome: CellOutcome) -> None:
        outcomes[spec.key] = outcome
        if (
            cache is not None
            and isinstance(outcome, CellData)
            and not outcome.from_cache
        ):
            cache.put(spec_cache_key(spec), outcome.cache_payload())
        if progress is not None:
            progress(spec, outcome)

    pending: list[CellSpec] = []
    for spec in specs:
        payload = cache.get(spec_cache_key(spec)) if cache is not None else None
        if payload is not None:
            finish(spec, CellData.from_cache_payload(spec, payload))
        else:
            pending.append(spec)

    if jobs <= 1:
        for spec in pending:
            finish(
                spec,
                _run_inline(spec, retries, collect_trace, compile_cache, fn_store),
            )
    else:
        _run_pooled(
            pending, jobs, timeout, retries, collect_trace, finish, fn_store
        )
    return outcomes


def _run_inline(
    spec: CellSpec,
    retries: int,
    collect_trace: bool,
    compile_cache: dict[str, CompileResult] | None = None,
    fn_store: FunctionStore | None = None,
) -> CellOutcome:
    attempts = 0
    started = time.perf_counter()
    while True:
        attempts += 1
        try:
            return execute_cell(
                spec,
                collect_trace,
                keep_compile_result=True,
                compile_cache=compile_cache,
                fn_store=fn_store,
            )
        except ReproError as error:
            last = f"{type(error).__name__}: {error}"
        except Exception as error:  # genuinely unexpected: keep the trace
            last = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
        if attempts > retries:
            _log.warning(
                "cell %s[%s] crashed after %d attempt(s): %s",
                spec.workload, spec.variant, attempts, last,
            )
            return CellFailure(
                workload=spec.workload,
                variant=spec.variant,
                kind="crash",
                message=last,
                attempts=attempts,
                seconds=time.perf_counter() - started,
            )


def _run_pooled(
    pending: list[CellSpec],
    jobs: int,
    timeout: float | None,
    retries: int,
    collect_trace: bool,
    finish: Callable[[CellSpec, CellOutcome], None],
    fn_store: FunctionStore | None = None,
) -> None:
    attempts: dict[tuple[str, str], int] = {spec.key: 0 for spec in pending}
    # only a disk-backed store shares entries across process boundaries;
    # shipping a memory-only one would just pickle dead weight per cell
    if fn_store is not None and fn_store.root is None:
        fn_store = None
    round_specs = list(pending)
    while round_specs:
        retry_specs: list[CellSpec] = []
        abandoned_workers = False
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(round_specs)))
        futures = {
            spec.key: pool.submit(
                execute_cell, spec, collect_trace, fn_store=fn_store
            )
            for spec in round_specs
        }
        for spec in round_specs:
            future = futures[spec.key]
            attempts[spec.key] += 1
            started = time.perf_counter()
            try:
                finish(spec, future.result(timeout=timeout))
                continue
            except FutureTimeoutError:
                future.cancel()
                abandoned_workers = True
                finish(
                    spec,
                    CellFailure(
                        workload=spec.workload,
                        variant=spec.variant,
                        kind="timeout",
                        message=f"exceeded {timeout:.3g}s cell budget",
                        attempts=attempts[spec.key],
                        seconds=time.perf_counter() - started,
                    ),
                )
                continue
            except BrokenExecutor as error:
                # the worker process died (segfault, OOM-kill); the whole
                # pool is unusable, so every unfinished sibling retries in
                # a fresh pool next round
                message = f"worker process died: {error}"
            except ReproError as error:
                message = f"{type(error).__name__}: {error}"
            except Exception as error:
                message = "".join(
                    traceback.format_exception_only(type(error), error)
                ).strip()
            if attempts[spec.key] <= retries:
                retry_specs.append(spec)
            else:
                finish(
                    spec,
                    CellFailure(
                        workload=spec.workload,
                        variant=spec.variant,
                        kind="crash",
                        message=message,
                        attempts=attempts[spec.key],
                        seconds=time.perf_counter() - started,
                    ),
                )
        # don't block the suite on abandoned (timed-out) workers; their
        # max_steps fuel bounds how long they can run on
        pool.shutdown(wait=not abandoned_workers, cancel_futures=True)
        round_specs = retry_specs
