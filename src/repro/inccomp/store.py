"""The on-disk / in-memory store of optimized function bodies.

A :class:`~repro.store.Store` codec whose entries are
``<root>/<key[:2]>/<key>.pkl``, with the root in the ``fn/``
subdirectory of the cache.  Payloads are pickles of
:class:`FunctionRecord` — the optimized
:class:`~repro.ir.function.Function` plus everything the pipeline must
replay to stay observably identical to a from-scratch compile: pass
reports, additive pass-stat contributions, and the decision-ledger rows
the function's passes recorded.

``get`` always unpickles from bytes, so every hit hands out a *fresh*
object graph — a spliced function is never shared between two modules.
``root=None`` keeps the store memory-only (the serve workers' and fuzz
campaigns' warm memo).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..store import DEFAULT_CACHE_DIR, MAX_MEMORY_ENTRIES, Store

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..diag.ledger import Decision
    from ..ir.function import Function

__all__ = ["DEFAULT_FN_CACHE_DIR", "FN_SUBDIR", "FunctionRecord", "FunctionStore"]

#: the function store's subdirectory of a cache directory
FN_SUBDIR = "fn"

DEFAULT_FN_CACHE_DIR = DEFAULT_CACHE_DIR / FN_SUBDIR


@dataclass
class FunctionRecord:
    """One cached compilation of one function."""

    function: "Function"
    promotion: object | None = None
    pointer_promotion: object | None = None
    regalloc: object | None = None
    #: additive metric contributions (``licm.hoisted`` etc.)
    stats: dict[str, float] = field(default_factory=dict)
    #: ledger rows recorded while this function's passes ran (only
    #: populated for ``ledgered=True`` keys)
    decisions: list["Decision"] = field(default_factory=list)
    #: wall seconds the original optimization took (reporting only)
    seconds: float = 0.0


class FunctionStore(Store):
    """:class:`FunctionRecord` pickles; anything else decodes as corrupt."""

    suffix = ".pkl"

    def __init__(
        self,
        root: str | Path | None = DEFAULT_FN_CACHE_DIR,
        max_entries: int = MAX_MEMORY_ENTRIES,
    ) -> None:
        super().__init__(root, max_entries)

    # bound on this class, not inherited: the pipeline calls them through
    # ``FunctionStore`` and the per-layer tracer wraps them here
    get = Store.get
    put = Store.put

    def _encode(self, record: FunctionRecord) -> bytes:
        return pickle.dumps(record)

    def _decode(self, blob: bytes) -> FunctionRecord:
        record = pickle.loads(blob)
        if not isinstance(record, FunctionRecord):
            raise TypeError(f"not a FunctionRecord: {type(record).__name__}")
        return record
