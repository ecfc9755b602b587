"""The span model: nested wall-clock spans with trace-context identity.

This module is the core of :mod:`repro.trace`.  A :class:`Trace` records
nested :func:`span`\\ s — one per compiler pass, plus ``parse``,
``execute``, and the serving layer's request lifecycle — together with
the static operation count of the module before and after each pass, so
a trace shows both where the time goes and which pass removes which
operations.

Two regimes share one API:

* **anonymous traces** (``tracing()`` with no context) behave exactly
  like the old telemetry layer: spans carry no identity, only
  name/timing/args, and serialize byte-compatibly with the pre-trace
  format — ``repro suite --trace`` output is unchanged;
* **identified traces** (``tracing(context=TraceContext(...))``) stamp
  every span with ``trace_id`` / ``span_id`` / ``parent_id`` and an
  absolute ``wall_start``, which is what lets spans recorded in a forked
  worker merge with the serving parent's spans into one connected tree
  (see :func:`propagation_context` and :meth:`Trace.adopt`).

The layer costs nothing when disabled: :func:`span` checks a
module-level current trace and yields immediately when none is
installed, so the pipeline can be instrumented unconditionally.  Spans
additionally yield a mutable dict — args discovered only at pass *exit*
(decision counts, dynamic op totals) are merged into the event there.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "HeadSampler",
    "SpanEvent",
    "Trace",
    "TraceContext",
    "current_trace",
    "module_op_breakdown",
    "module_op_count",
    "new_trace_id",
    "propagation_context",
    "span",
    "tracing",
]


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return os.urandom(8).hex()


# span ids are pid-qualified so they stay unique across the fork boundary,
# and drawn from one process-wide counter so concurrent traces in the same
# process (the async server handles many requests at once) never collide
_SPAN_IDS = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """The portable part of a trace: what crosses process boundaries.

    ``trace_id`` names the whole request; ``parent_id`` is the span the
    receiving side should parent its top-level spans under (the sender's
    currently-open span).  The dict form is what travels inside worker
    job payloads across the fork boundary.
    """

    trace_id: str
    parent_id: str | None = None
    sampled: bool = True

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            parent_id=data.get("parent_id"),
            sampled=bool(data.get("sampled", True)),
        )


@dataclass
class SpanEvent:
    """One completed span.

    ``start`` is seconds since the owning trace began; ``seconds`` is the
    inclusive duration and ``self_seconds`` excludes time spent in child
    spans, so summing ``self_seconds`` over a trace never double-counts.
    The identity fields (``trace_id``/``span_id``/``parent_id``/``worker``
    /``wall_start``) are ``None`` for anonymous traces and omitted from
    the dict form, which keeps cached payloads and Chrome exports
    byte-compatible with the pre-context format.
    """

    name: str
    start: float
    seconds: float
    depth: int
    self_seconds: float
    args: dict[str, object] = field(default_factory=dict)
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    #: which process recorded this span ("serve", "w0", ...)
    worker: str | None = None
    #: absolute ``time.time()`` at span start — the cross-process timeline
    wall_start: float | None = None

    def as_dict(self) -> dict[str, object]:
        data: dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "depth": self.depth,
            "self_seconds": self.self_seconds,
            "args": dict(self.args),
        }
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.span_id is not None:
            data["span_id"] = self.span_id
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if self.worker is not None:
            data["worker"] = self.worker
        if self.wall_start is not None:
            data["wall_start"] = self.wall_start
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "SpanEvent":
        wall_start = data.get("wall_start")
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            seconds=float(data["seconds"]),  # type: ignore[arg-type]
            depth=int(data["depth"]),  # type: ignore[arg-type]
            self_seconds=float(data["self_seconds"]),  # type: ignore[arg-type]
            args=dict(data.get("args", {})),  # type: ignore[arg-type]
            trace_id=data.get("trace_id"),  # type: ignore[arg-type]
            span_id=data.get("span_id"),  # type: ignore[arg-type]
            parent_id=data.get("parent_id"),  # type: ignore[arg-type]
            worker=data.get("worker"),  # type: ignore[arg-type]
            wall_start=float(wall_start) if wall_start is not None else None,  # type: ignore[arg-type]
        )


def module_op_count(module) -> int:
    """Static instruction count — the per-pass size metric."""
    return sum(
        1 for function in module.functions.values() for _ in function.instructions()
    )


def module_op_breakdown(module) -> dict[str, int]:
    """Static instruction counts bucketed by opcode class.

    Buckets: ``loads`` (sload/cload/load), ``stores`` (sstore/store),
    ``copies`` (mov), ``calls``, ``branches`` (br/cbr/ret), ``other``
    (arithmetic, address computation, phi...).  ``nop`` placeholders are
    excluded — they are dead weight the clean pass erases, not work.
    """
    from ..ir.instructions import (
        Branch,
        Call,
        CLoad,
        MemLoad,
        MemStore,
        Mov,
        Nop,
        Ret,
        ScalarLoad,
        ScalarStore,
    )

    counts = {
        "loads": 0, "stores": 0, "copies": 0,
        "calls": 0, "branches": 0, "other": 0,
    }
    for function in module.functions.values():
        for instr in function.instructions():
            if isinstance(instr, (ScalarLoad, CLoad, MemLoad)):
                counts["loads"] += 1
            elif isinstance(instr, (ScalarStore, MemStore)):
                counts["stores"] += 1
            elif isinstance(instr, Mov):
                counts["copies"] += 1
            elif isinstance(instr, Call):
                counts["calls"] += 1
            elif isinstance(instr, (Branch, Ret)):
                counts["branches"] += 1
            elif not isinstance(instr, Nop):
                counts["other"] += 1
    return counts


class Trace:
    """An ordered collection of spans from one traced activity."""

    def __init__(
        self,
        name: str = "trace",
        context: TraceContext | None = None,
        worker: str | None = None,
    ) -> None:
        self.name = name
        self.context = context
        self.worker = worker
        self.epoch = time.perf_counter()
        self.wall_epoch = time.time()
        self.events: list[SpanEvent] = []
        # one child-time accumulator per open span, plus a root slot
        self._child_time: list[float] = [0.0]
        #: span ids of currently-open spans, outermost first
        self._open_ids: list[str] = []

    def new_span_id(self) -> str:
        """A span id unique across the fork boundary (pid-qualified)."""
        return f"{os.getpid():x}-{next(_SPAN_IDS):x}"

    def open_parent_id(self) -> str | None:
        """The id new spans would be parented under right now."""
        if self._open_ids:
            return self._open_ids[-1]
        return self.context.parent_id if self.context is not None else None

    @contextmanager
    def span(
        self,
        name: str,
        module=None,
        span_id: str | None = None,
        **args: object,
    ) -> Iterator[dict]:
        """Record one live span; yields a dict for exit-time args."""
        depth = len(self._child_time) - 1
        self._child_time.append(0.0)
        identified = self.context is not None
        sid = span_id or (self.new_span_id() if identified else None)
        parent = self.open_parent_id() if identified else None
        if sid is not None:
            self._open_ids.append(sid)
        ops_before = module_op_count(module) if module is not None else None
        classes_before = module_op_breakdown(module) if module is not None else None
        extra: dict[str, object] = {}
        start = time.perf_counter()
        try:
            yield extra
        finally:
            seconds = time.perf_counter() - start
            child_time = self._child_time.pop()
            self._child_time[-1] += seconds
            if sid is not None:
                self._open_ids.pop()
            # a block may ask for its own self time to be booked as an
            # explicit child (``extra["frame_gap"] = name``): the gap is
            # derived from the same clock read as ``seconds``, so no
            # scheduling hiccup between a measurement and the span close
            # can leave unattributed time — this is how the serving layer
            # keeps a traced request's span coverage at ~100% regardless
            # of machine load
            gap_name = extra.pop("frame_gap", None)
            if gap_name is not None and seconds > child_time:
                self.events.append(
                    SpanEvent(
                        name=str(gap_name),
                        start=start - self.epoch,
                        seconds=seconds - child_time,
                        depth=depth + 1,
                        self_seconds=seconds - child_time,
                        trace_id=(
                            self.context.trace_id if identified else None
                        ),
                        span_id=self.new_span_id() if identified else None,
                        parent_id=sid,
                        worker=self.worker if identified else None,
                        wall_start=(
                            self.wall_epoch + (start - self.epoch)
                            if identified
                            else None
                        ),
                    )
                )
                child_time = seconds
            event_args: dict[str, object] = dict(args)
            if ops_before is not None:
                ops_after = module_op_count(module)
                event_args["ops_before"] = ops_before
                event_args["ops_after"] = ops_after
                event_args["ops_delta"] = ops_after - ops_before
            if classes_before is not None:
                classes_after = module_op_breakdown(module)
                class_delta = {
                    cls: classes_after[cls] - classes_before[cls]
                    for cls in classes_after
                    if classes_after[cls] != classes_before[cls]
                }
                if class_delta:
                    event_args["ops_by_class_delta"] = class_delta
            if extra:
                event_args.update(extra)
            self.events.append(
                SpanEvent(
                    name=name,
                    start=start - self.epoch,
                    seconds=seconds,
                    depth=depth,
                    self_seconds=max(0.0, seconds - child_time),
                    args=event_args,
                    trace_id=self.context.trace_id if identified else None,
                    span_id=sid,
                    parent_id=parent,
                    worker=self.worker if identified else None,
                    wall_start=(
                        self.wall_epoch + (start - self.epoch)
                        if identified
                        else None
                    ),
                )
            )

    def add_event(
        self,
        name: str,
        *,
        start_perf: float,
        seconds: float,
        span_id: str | None = None,
        parent_id: str | None = None,
        **args: object,
    ) -> SpanEvent:
        """Record an already-elapsed span (e.g. queue wait measured at
        dequeue).  It is attributed as a child of the innermost open span
        for self-time accounting."""
        identified = self.context is not None
        self._child_time[-1] += seconds
        start = start_perf - self.epoch
        event = SpanEvent(
            name=name,
            start=start,
            seconds=seconds,
            depth=len(self._child_time) - 1,
            self_seconds=seconds,
            args=dict(args),
            trace_id=self.context.trace_id if identified else None,
            span_id=(
                (span_id or self.new_span_id()) if identified else None
            ),
            parent_id=(
                parent_id or self.open_parent_id() if identified else None
            ),
            worker=self.worker if identified else None,
            wall_start=self.wall_epoch + start if identified else None,
        )
        self.events.append(event)
        return event

    def adopt(self, span_dicts: list[dict]) -> list[SpanEvent]:
        """Merge spans recorded in another process into this trace.

        Each adopted span's ``start`` is re-based onto this trace's
        timeline through its absolute ``wall_start`` (the processes share
        a clock — the fork boundary is on one host), and its depth is
        shifted under the innermost open span.
        """
        base_depth = len(self._child_time) - 1
        adopted = []
        for data in span_dicts:
            event = SpanEvent.from_dict(data)
            if event.wall_start is not None:
                event.start = event.wall_start - self.wall_epoch
            event.depth += base_depth
            self.events.append(event)
            adopted.append(event)
        return adopted

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.events if e.depth == 0)


_CURRENT: Trace | None = None


def current_trace() -> Trace | None:
    return _CURRENT


def propagation_context() -> TraceContext | None:
    """The context a child unit of work should run under: the current
    trace's id with the innermost open span as parent.  ``None`` when no
    identified trace is active — callers ship nothing in that case."""
    trace = _CURRENT
    if trace is None or trace.context is None:
        return None
    return TraceContext(
        trace_id=trace.context.trace_id, parent_id=trace.open_parent_id()
    )


@contextmanager
def tracing(
    name: str = "trace",
    context: TraceContext | None = None,
    worker: str | None = None,
) -> Iterator[Trace]:
    """Install a fresh trace as the current one for the duration."""
    global _CURRENT
    previous = _CURRENT
    trace = Trace(name, context=context, worker=worker)
    _CURRENT = trace
    try:
        yield trace
    finally:
        _CURRENT = previous


@contextmanager
def span(name: str, module=None, **args: object) -> Iterator[dict | None]:
    """Record a span on the current trace; free no-op when tracing is off.

    Yields the span's mutable exit-args dict (``None`` when tracing is
    off) so instrumentation can attach values computed inside the span.
    """
    trace = _CURRENT
    if trace is None:
        yield None
        return
    with trace.span(name, module=module, **args) as extra:
        yield extra


class HeadSampler:
    """Head-based sampling: decide at admission, propagate everywhere.

    ``rate`` is the fraction of requests traced: 0 disables, 1 traces
    everything.  A dedicated :class:`random.Random` keeps the decision
    stream independent of application randomness (and seedable in tests).
    """

    def __init__(self, rate: float, seed: int | None = None) -> None:
        self.rate = max(0.0, min(1.0, float(rate)))
        self._rng = random.Random(seed)

    def sample(self) -> bool:
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return self._rng.random() < self.rate
