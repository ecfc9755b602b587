"""Content-addressed on-disk result cache for experiment cells.

A cell's key is the SHA-256 of everything that determines its result:

* the workload's C source and preprocessor defines,
* the full :class:`~repro.pipeline.PipelineOptions` (including nested
  promotion and register-allocation options),
* the :class:`~repro.interp.MachineOptions`,
* :data:`SCHEMA_VERSION` (bump when the stored payload changes meaning),
* a fingerprint of the compiler's own source files, so editing any pass
  invalidates every cached cell automatically — only genuinely unrelated
  edits (docs, tests, the runner itself) keep the cache warm.

Values are small JSON payloads (counters, output, exit code, timing) in
the :class:`~repro.store.Store` layout — ``.repro-cache/ab/abcdef....json``.
Failures are never cached.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..store import DEFAULT_CACHE_DIR, Store, content_key, jsonable

__all__ = ["SCHEMA_VERSION", "ResultCache", "cell_key"]

#: bump when the cached payload or the meaning of a counter changes
SCHEMA_VERSION = 3  # v3: cells may be produced by incremental per-function
#                     compilation (repro.inccomp); byte-identical by
#                     contract, but invalidate pre-inccomp payloads


def cell_key(
    source: str,
    defines: dict[str, str] | None,
    options,
    machine,
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """The content address of one (program, variant, machine) cell."""
    return content_key(
        schema_version,
        source=source,
        defines=jsonable(defines or {}),
        pipeline=jsonable(options),
        machine=jsonable(machine),
    )


class ResultCache(Store):
    """Cell payload dicts as JSON stamped with :data:`SCHEMA_VERSION`.

    No memory layer: every ``get`` reads disk, so a damaged or evicted
    entry (the serve chaos sites) is what the next read sees.
    """

    suffix = ".json"

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        super().__init__(root, max_entries=0)

    def _encode(self, payload: dict) -> bytes:
        body = json.dumps({"schema": SCHEMA_VERSION, **payload}, sort_keys=True)
        return body.encode()

    def _decode(self, blob: bytes) -> dict:
        payload = json.loads(blob)
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            raise ValueError(f"not a schema-{SCHEMA_VERSION} cell payload")
        return payload
