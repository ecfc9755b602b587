"""The compiler-decision ledger.

Every optimization pass records *why* it did (or refused to do) something
as a structured :class:`Decision`.  The canonical example is register
promotion: one decision per (loop, tag) pair, either ``promoted`` or
``blocked`` with the blocking reason — ``ambiguous-via-call`` naming the
offending callee and its MOD/REF summary, ``ambiguous-via-pointer`` with
the memory operation's tag set, ``not-scalar``, ``not-referenced``, or
``pressure-throttled``.  This is exactly the provenance needed to answer
the paper's section 5 question "why does points-to promote tags MOD/REF
cannot?" about a concrete program.

The ledger follows the same zero-cost-when-off pattern as
:mod:`repro.trace`: passes call :func:`record`, which is a
no-op unless a :func:`decision_ledger` context is active.  ``repro
explain FILE`` installs a ledger around one compilation and renders the
result as a table or JSONL.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Decision",
    "DecisionLedger",
    "current_ledger",
    "decision_ledger",
    "format_decision_table",
    "record",
]

#: cap on how many tag names a decision detail spells out verbatim
MAX_DETAIL_TAGS = 12


@dataclass
class Decision:
    """One recorded compiler decision.

    ``action`` is the verb ("promoted", "blocked", "hoisted",
    "strengthened", "applied", "summarized", "refined"); ``reason`` is a
    short kebab-case code explaining a negative outcome; ``detail`` holds
    pass-specific provenance (JSON-serializable only).
    """

    pass_name: str
    function: str
    action: str
    loop: str | None = None
    tag: str | None = None
    reason: str | None = None
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "function": self.function,
            "action": self.action,
            "loop": self.loop,
            "tag": self.tag,
            "reason": self.reason,
            "detail": dict(self.detail),
        }

    def why(self) -> str:
        """One human-readable clause of provenance for the table view."""
        parts: list[str] = []
        for call in self.detail.get("calls", ()):
            sets = [s for s in ("mod", "ref") if call.get(f"in_{s}")]
            parts.append(f"call {call['callee']} ({'+'.join(sets) or '?'})")
        for op in self.detail.get("pointer_ops", ()):
            tags = "*" if op.get("universal") else "{%s}" % ",".join(op["tags"])
            parts.append(f"{op['op']} via {tags}")
        if self.detail.get("lifted_here") is True:
            parts.append("lifted here")
        elif self.detail.get("lifted_here") is False:
            parts.append("inherited from outer loop")
        if "opcode" in self.detail:
            parts.append(str(self.detail["opcode"]))
        if not parts and self.detail:
            parts.append(
                " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
            )
        return "; ".join(parts)


class DecisionLedger:
    """An append-only collection of decisions with simple querying."""

    def __init__(self) -> None:
        self.decisions: list[Decision] = []

    def record(self, decision: Decision) -> None:
        self.decisions.append(decision)

    def query(
        self,
        pass_name: str | None = None,
        function: str | None = None,
        loop: str | None = None,
        tag: str | None = None,
        action: str | None = None,
    ) -> list[Decision]:
        out = self.decisions
        if pass_name is not None:
            out = [d for d in out if d.pass_name == pass_name]
        if function is not None:
            out = [d for d in out if d.function == function]
        if loop is not None:
            out = [d for d in out if d.loop == loop]
        if tag is not None:
            out = [d for d in out if d.tag == tag]
        if action is not None:
            out = [d for d in out if d.action == action]
        return list(out)

    def jsonl(self, decisions: list[Decision] | None = None) -> str:
        rows = self.decisions if decisions is None else decisions
        return "\n".join(json.dumps(d.as_dict(), sort_keys=True) for d in rows)

    def __len__(self) -> int:
        return len(self.decisions)


_CURRENT: DecisionLedger | None = None


def current_ledger() -> DecisionLedger | None:
    return _CURRENT


@contextmanager
def decision_ledger() -> Iterator[DecisionLedger]:
    """Install a fresh ledger as the current one for the duration."""
    global _CURRENT
    previous = _CURRENT
    ledger = DecisionLedger()
    _CURRENT = ledger
    try:
        yield ledger
    finally:
        _CURRENT = previous


def record(
    pass_name: str,
    function: str,
    action: str,
    loop: str | None = None,
    tag: str | None = None,
    reason: str | None = None,
    detail: dict | None = None,
) -> None:
    """Record a decision on the active ledger; free no-op when none is."""
    ledger = _CURRENT
    if ledger is None:
        return
    ledger.record(
        Decision(
            pass_name=pass_name,
            function=function,
            action=action,
            loop=loop,
            tag=tag,
            reason=reason,
            detail=detail or {},
        )
    )


def trim_tag_names(tags, limit: int = MAX_DETAIL_TAGS) -> list[str]:
    """Sorted tag names, truncated so a huge universe can't bloat details."""
    names = sorted(str(t) for t in tags)
    if len(names) > limit:
        names = names[:limit] + [f"... +{len(names) - limit} more"]
    return names


def format_decision_table(decisions: list[Decision]) -> str:
    """The ``repro explain`` human view."""
    if not decisions:
        return "(no decisions recorded)"
    header = (
        f"{'pass':<18} {'function':<14} {'loop':<8} {'tag':<14} "
        f"{'action':<12} {'reason':<22} why"
    )
    lines = [header, "-" * len(header)]
    for d in decisions:
        lines.append(
            f"{d.pass_name:<18} {d.function:<14} {d.loop or '-':<8} "
            f"{d.tag or '-':<14} {d.action:<12} {d.reason or '-':<22} "
            f"{d.why()}"
        )
    return "\n".join(lines)
