"""End-to-end tracing: spans, context propagation, flight recorder.

The span model and in-process API live in
:mod:`repro.trace.spans`; the always-on crash-bundle ring buffer in
:mod:`repro.trace.flight`; exporters and the attribution/critical-path
analysis in :mod:`repro.trace.analyze`; the ``repro trace`` CLI's
rendering in :mod:`repro.trace.report`.
See ``docs/OBSERVABILITY.md`` for the model.
"""

from .analyze import (
    attribution,
    chrome_trace,
    critical_path,
    format_span_summary,
    group_traces,
    load_spans,
    orphan_spans,
    trace_coverage,
    trace_root,
    write_chrome_trace,
    write_spans_jsonl,
)
from .flight import (
    FlightLogHandler,
    FlightRecorder,
    flight_recorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from .spans import (
    HeadSampler,
    SpanEvent,
    Trace,
    TraceContext,
    current_trace,
    module_op_breakdown,
    module_op_count,
    new_trace_id,
    propagation_context,
    span,
    tracing,
)

__all__ = [
    "FlightLogHandler",
    "FlightRecorder",
    "HeadSampler",
    "SpanEvent",
    "Trace",
    "TraceContext",
    "attribution",
    "chrome_trace",
    "critical_path",
    "current_trace",
    "flight_recorder",
    "format_span_summary",
    "group_traces",
    "install_flight_recorder",
    "load_spans",
    "module_op_breakdown",
    "module_op_count",
    "new_trace_id",
    "orphan_spans",
    "propagation_context",
    "span",
    "trace_coverage",
    "trace_root",
    "tracing",
    "uninstall_flight_recorder",
    "write_chrome_trace",
    "write_spans_jsonl",
]
