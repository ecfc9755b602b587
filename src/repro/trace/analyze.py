"""Span export and analysis: Chrome trace, JSONL streams, attribution.

Two export formats serve different consumers:

* :func:`chrome_trace` — the Chrome trace-event format for
  ``chrome://tracing`` / https://ui.perfetto.dev, unchanged from the
  original telemetry layer (``repro suite --trace`` output stays
  byte-compatible);
* :func:`write_spans_jsonl` — one span dict per line, the stream the
  server's ``--trace-export`` writes and the ``repro trace`` CLI reads.

The analysis half answers the attribution question per request: group a
JSONL stream into traces (:func:`group_traces`), check structural health
(:func:`orphan_spans`, :func:`trace_coverage`), bucket the time into
queue / compile / execute / cache (:func:`attribution`) and walk the
dominant chain (:func:`critical_path`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .spans import SpanEvent

__all__ = [
    "attribution",
    "chrome_trace",
    "critical_path",
    "format_span_summary",
    "group_traces",
    "load_spans",
    "orphan_spans",
    "trace_coverage",
    "trace_root",
    "write_chrome_trace",
    "write_spans_jsonl",
]


# -- Chrome trace export ---------------------------------------------------


def chrome_trace(groups: dict[str, list[SpanEvent]]) -> dict:
    """Convert span groups (label -> events) to the Chrome trace-event
    format: one synthetic thread per group, complete (``ph: X``) events in
    microseconds."""
    trace_events: list[dict] = []
    for tid, (label, events) in enumerate(sorted(groups.items())):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
        for event in events:
            trace_events.append(
                {
                    "name": event.name,
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "ts": round(event.start * 1e6, 3),
                    "dur": round(event.seconds * 1e6, 3),
                    "args": dict(event.args),
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, groups: dict[str, list[SpanEvent]]) -> None:
    Path(path).write_text(json.dumps(chrome_trace(groups), indent=1) + "\n")


def format_span_summary(groups: dict[str, list[SpanEvent]]) -> str:
    """Aggregate spans by name across all groups: calls, self time, the net
    static operations removed (``-ops_delta`` summed), and the load subset
    of that (from ``ops_by_class_delta``)."""
    totals: dict[str, dict[str, float]] = {}
    for events in groups.values():
        for event in events:
            entry = totals.setdefault(
                event.name, {"calls": 0, "self": 0.0, "removed": 0, "loads": 0}
            )
            entry["calls"] += 1
            entry["self"] += event.self_seconds
            delta = event.args.get("ops_delta")
            if isinstance(delta, int):
                entry["removed"] -= delta
            by_class = event.args.get("ops_by_class_delta")
            if isinstance(by_class, dict):
                loads_delta = by_class.get("loads")
                if isinstance(loads_delta, int):
                    entry["loads"] -= loads_delta
    grand_self = sum(entry["self"] for entry in totals.values()) or 1.0
    header = (
        f"{'span':<20} {'calls':>6} {'self (s)':>10} {'% self':>8} "
        f"{'ops removed':>12} {'loads removed':>14}"
    )
    lines = [header, "-" * len(header)]
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        lines.append(
            f"{name:<20} {int(entry['calls']):>6} {entry['self']:>10.3f} "
            f"{100.0 * entry['self'] / grand_self:>8.1f} "
            f"{int(entry['removed']):>12} {int(entry['loads']):>14}"
        )
    return "\n".join(lines)


# -- JSONL span streams ------------------------------------------------------


def write_spans_jsonl(
    path, events: Iterable[SpanEvent], append: bool = False
) -> int:
    """Write spans one-dict-per-line; returns the number written."""
    count = 0
    with Path(path).open("a" if append else "w") as fh:
        for event in events:
            fh.write(json.dumps(event.as_dict(), default=str) + "\n")
            count += 1
    return count


def load_spans(path) -> list[SpanEvent]:
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(SpanEvent.from_dict(json.loads(line)))
    return events


def group_traces(events: Iterable[SpanEvent]) -> dict[str, list[SpanEvent]]:
    """Bucket identified spans by trace id (anonymous spans are skipped)."""
    traces: dict[str, list[SpanEvent]] = {}
    for event in events:
        if event.trace_id is not None:
            traces.setdefault(event.trace_id, []).append(event)
    return traces


def trace_root(events: list[SpanEvent]) -> SpanEvent | None:
    """The span with no parent within the trace (the ``request`` span)."""
    ids = {e.span_id for e in events if e.span_id is not None}
    roots = [e for e in events if e.parent_id not in ids]
    if not roots:
        return None
    return max(roots, key=lambda e: e.seconds)


def orphan_spans(events: list[SpanEvent]) -> list[SpanEvent]:
    """Spans whose ``parent_id`` names no span in the trace.

    A healthy trace has exactly one such span — the root, whose
    ``parent_id`` is ``None``.  Anything else is a propagation bug.
    """
    ids = {e.span_id for e in events if e.span_id is not None}
    return [
        e for e in events if e.parent_id is not None and e.parent_id not in ids
    ]


def _children(events: list[SpanEvent], parent: SpanEvent) -> list[SpanEvent]:
    return [e for e in events if e.parent_id == parent.span_id]


def trace_coverage(events: list[SpanEvent]) -> float:
    """Fraction of the root span's time covered by its direct children.

    This is the "no unexplained gaps" health metric: for a well
    instrumented request the direct children of the root (queue wait,
    cache lookup, dispatch, serialization...) should account for nearly
    all of the request's wall time.
    """
    root = trace_root(events)
    if root is None or root.seconds <= 0.0:
        return 0.0
    covered = sum(e.seconds for e in _children(events, root))
    return min(1.0, covered / root.seconds)


# -- latency attribution -----------------------------------------------------

#: span-name prefixes -> attribution bucket
_BUCKETS = (
    ("queue_wait", "queue"),
    ("cache_lookup", "cache"),
    ("cache_hit_framing", "cache"),
    ("cache_write", "cache"),
    ("coalesce_wait", "coalesce"),
    ("compile", "compile"),
    ("parse", "compile"),
    ("optimize", "compile"),
    ("execute", "execute"),
    ("interp.", "execute"),
)


def _bucket(name: str) -> str | None:
    for prefix, bucket in _BUCKETS:
        if name == prefix or name.startswith(prefix):
            return bucket
    return None


def attribution(events: list[SpanEvent]) -> dict[str, float]:
    """Bucket one trace's time into queue/cache/coalesce/compile/execute.

    Only the *outermost* span of each bucket counts (a ``parse`` span
    inside a ``compile`` span is not added again), implemented by
    skipping a span whose ancestor chain already hit the same bucket.
    The leftover inside the root is ``other`` (framing, dispatch
    overhead, serialization); ``coverage`` is the direct-children health
    metric and ``total`` the root duration.
    """
    by_id = {e.span_id: e for e in events if e.span_id is not None}
    root = trace_root(events)
    totals = {
        "queue": 0.0, "cache": 0.0, "coalesce": 0.0,
        "compile": 0.0, "execute": 0.0,
    }

    def ancestor_hits_bucket(event: SpanEvent, bucket: str) -> bool:
        seen = set()
        parent = event.parent_id
        while parent is not None and parent not in seen:
            seen.add(parent)
            ancestor = by_id.get(parent)
            if ancestor is None:
                return False
            if _bucket(ancestor.name) == bucket:
                return True
            parent = ancestor.parent_id
        return False

    for event in events:
        bucket = _bucket(event.name)
        if bucket is None or event is root:
            continue
        if ancestor_hits_bucket(event, bucket):
            continue
        totals[bucket] += event.seconds

    total = root.seconds if root is not None else sum(
        e.seconds for e in events
    )
    attributed = sum(totals.values())
    totals["other"] = max(0.0, total - attributed)
    totals["total"] = total
    totals["coverage"] = trace_coverage(events)
    return totals


def critical_path(events: list[SpanEvent]) -> list[SpanEvent]:
    """The chain root → heaviest child → ... (longest-duration descent)."""
    root = trace_root(events)
    if root is None:
        return []
    path = [root]
    seen = {root.span_id}
    node = root
    while True:
        kids = [
            e for e in _children(events, node)
            if e.span_id not in seen or e.span_id is None
        ]
        if not kids:
            return path
        node = max(kids, key=lambda e: e.seconds)
        path.append(node)
        if node.span_id is not None:
            seen.add(node.span_id)
