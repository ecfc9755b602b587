"""One content-addressed store behind every on-disk memo of the compiler.

Two codecs share it: the runner's :class:`~repro.runner.cache.ResultCache`
(one JSON payload per Figure 5-7 cell) and the inccomp
:class:`~repro.inccomp.store.FunctionStore` (one pickled
:class:`~repro.inccomp.store.FunctionRecord` per optimized function).  A
codec names its file suffix and encodes/decodes its payload; everything
else lives here:

* the layout ``<root>/<key[:2]>/<key><suffix>``, two levels deep so the
  directory stays listable with tens of thousands of entries;
* write-then-rename :meth:`Store.put`, so concurrent writers (suite
  workers, serve workers sharing one directory) never expose a torn entry;
* a bounded FIFO memory layer of encoded bytes in front of the disk
  (``root=None`` keeps a store memory-only, ``max_entries=0`` turns the
  layer off).  Every hit decodes afresh, so two hits never share one
  object graph, and the layer is dropped when a store is pickled;
* one corruption policy: an entry that fails to decode, or decodes to the
  wrong schema or type, is logged, removed from memory and disk, and
  counted as a miss;
* the key derivation: :func:`content_key` hashes the canonical JSON of a
  payload together with its schema version and :func:`code_fingerprint`.

The compile-memo dicts and the engine caches on
:class:`~repro.ir.module.Module` stay outside, because they hold live
modules whose decode caches are the reason for sharing them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from pathlib import Path

from .diag.log import get_logger

__all__ = [
    "DEFAULT_CACHE_DIR",
    "MAX_MEMORY_ENTRIES",
    "Store",
    "canonical_json",
    "code_fingerprint",
    "content_key",
    "jsonable",
    "sha256_hex",
]

DEFAULT_CACHE_DIR = Path(".repro-cache")

#: default bound on a store's memory layer
MAX_MEMORY_ENTRIES = 4096

#: package parts whose edits cannot change a computed result
_NON_SEMANTIC_PARTS = ("runner", "serve", "store.py")

_log = get_logger(__name__)


def jsonable(value):
    """Canonical, deterministic JSON form of options objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def canonical_json(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def code_fingerprint() -> str:
    """SHA-256 over every semantic source file of the ``repro`` package."""
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in _NON_SEMANTIC_PARTS:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def content_key(schema: int, **fields) -> str:
    """The SHA-256 address of ``fields`` under one schema version and the
    current compiler source."""
    return sha256_hex(
        canonical_json({"schema": schema, "code": code_fingerprint(), **fields})
    )


class Store:
    """Hex-digest keys to payloads, on disk behind a bounded memory layer.

    Subclasses set :attr:`suffix` and implement :meth:`_encode` and
    :meth:`_decode`; ``_decode`` raises on anything it will not hand out.
    """

    #: file suffix of this codec's entries; ``clear`` and ``len`` count
    #: only these, so two codecs can share one directory tree
    suffix = ""

    def __init__(
        self, root: str | Path | None, max_entries: int = MAX_MEMORY_ENTRIES
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.max_entries = max_entries
        self._memory: dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def _encode(self, value) -> bytes:
        raise NotImplementedError

    def _decode(self, blob: bytes):
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # stores travel to pool workers by pickle; the memory layer is a
        # per-process warm layer and would be dead weight on the wire
        state = self.__dict__.copy()
        state["_memory"] = {}
        return state

    def path_for(self, key: str) -> Path:
        if self.root is None:
            raise ValueError("memory-only store has no paths")
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _remember(self, key: str, blob: bytes) -> None:
        if self.max_entries <= 0:
            return
        if key not in self._memory:
            while len(self._memory) >= self.max_entries:
                self._memory.pop(next(iter(self._memory)))
        self._memory[key] = blob

    def get(self, key: str):
        blob = self._memory.get(key)
        if blob is None and self.root is not None:
            try:
                blob = self.path_for(key).read_bytes()
            except OSError:
                pass
            else:
                self._remember(key, blob)
        if blob is None:
            self.misses += 1
            return None
        try:
            value = self._decode(blob)
        except Exception as error:
            _log.warning(
                "dropping corrupt %s entry %s: %s", type(self).__name__, key, error
            )
            self._memory.pop(key, None)
            if self.root is not None:
                self.path_for(key).unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        blob = self._encode(value)
        self._remember(key, blob)
        if self.root is None:
            return
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{id(self)}")
        tmp.write_bytes(blob)
        tmp.replace(path)

    def _disk_entries(self) -> list[Path]:
        if self.root is None:
            return []
        return list(self.root.glob(f"*/*{self.suffix}"))

    def clear(self) -> int:
        """Remove every entry (memory and disk); returns the disk count."""
        self._memory.clear()
        entries = self._disk_entries()
        for path in entries:
            path.unlink(missing_ok=True)
        return len(entries)

    def __len__(self) -> int:
        if self.root is None:
            return len(self._memory)
        return len(self._disk_entries())
