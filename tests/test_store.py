"""The shared content-addressed store behind the cell cache and the
function store: one corruption policy, one directory tree for both
namespaces, key derivation pinned to fixed digests, and the class
attributes the per-layer tracer wraps."""

from __future__ import annotations

import enum
import json
import pickle
from dataclasses import dataclass, field

import pytest

import repro.store
from repro.frontend import compile_c
from repro.inccomp import FunctionRecord, FunctionStore, function_key, options_digest
from repro.inccomp.store import DEFAULT_FN_CACHE_DIR, FN_SUBDIR
from repro.runner.cache import ResultCache, cell_key
from repro.runner.scheduler import run_cells
from repro.store import DEFAULT_CACHE_DIR

from tests.runner.helpers import make_spec

TINY = (
    "int add(int a, int b) {\n    return a + b;\n}\n"
    "int main(void) {\n    return add(1, 2) - 3;\n}\n"
)


def make_record() -> FunctionRecord:
    return FunctionRecord(function=compile_c(TINY, name="tiny").functions["add"])


CELL = {"counters": {"total_ops": 7}, "output": "ok\n", "exit_code": 0}

# (codec, a good value, bytes the codec must reject)
CORRUPTIONS = {
    "cell-not-json": (ResultCache, lambda: CELL, b"\x00{ not json\xff"),
    "cell-wrong-schema": (
        ResultCache,
        lambda: CELL,
        json.dumps({"schema": 999, **CELL}).encode(),
    ),
    "cell-not-a-dict": (ResultCache, lambda: CELL, b"[1, 2, 3]"),
    "fn-not-a-pickle": (FunctionStore, make_record, b"not a pickle"),
    "fn-wrong-type": (FunctionStore, make_record, pickle.dumps({"not": "a record"})),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_entry_is_unlinked_and_counted_as_a_miss(tmp_path, case):
    codec, value, garbage = CORRUPTIONS[case]
    codec(tmp_path).put("ab12", value())
    path = codec(tmp_path).path_for("ab12")
    path.write_bytes(garbage)

    store = codec(tmp_path)
    assert store.get("ab12") is None
    assert (store.hits, store.misses) == (0, 1)
    assert not path.exists()
    assert store._memory == {}
    # a clean miss from now on, and a rewrite heals the entry
    assert store.get("ab12") is None
    store.put("ab12", value())
    assert store.get("ab12") is not None


def test_cell_and_fn_namespaces_share_one_cache_dir(tmp_path):
    assert DEFAULT_FN_CACHE_DIR == DEFAULT_CACHE_DIR / FN_SUBDIR
    cells = ResultCache(tmp_path)
    functions = FunctionStore(tmp_path / FN_SUBDIR)
    cells.put("aa01", CELL)
    cells.put("bb02", CELL)
    functions.put("aa01", make_record())
    assert (len(cells), len(functions)) == (2, 1)

    assert cells.clear() == 2
    assert (len(cells), len(functions)) == (0, 1)
    assert FunctionStore(tmp_path / FN_SUBDIR).get("aa01") is not None

    cells.put("cc03", CELL)
    assert functions.clear() == 1
    assert (len(cells), len(functions)) == (1, 0)
    assert ResultCache(tmp_path).get("cc03") is not None


# -- key pinning: digests recorded before the key helpers moved ------------


class Level(enum.Enum):
    LOW = "low"
    HIGH = 2


@dataclass(frozen=True)
class Inner:
    k: int = 8
    on: bool = True


@dataclass(frozen=True)
class Opts:
    level: Level = Level.HIGH
    inner: Inner = field(default_factory=Inner)
    ratio: float = 0.5
    names: tuple = ("a", "b")
    table: dict = field(default_factory=lambda: {2: "x", 1: None})


@pytest.fixture
def fixed_fingerprint(monkeypatch):
    monkeypatch.setattr(repro.store, "code_fingerprint", lambda: "f" * 64)


def test_cell_key_is_pinned(fixed_fingerprint):
    assert cell_key(
        "int main(void) { return 0; }\n", {"N": "3"}, Opts(), Inner(k=4)
    ) == "86dc3fd1d24ee1210aa708768bc21c96340ad7937ca6eb10156039d343e2d8fb"
    assert cell_key(
        "int x;\n", None, Opts(level=Level.LOW), Inner()
    ) == "5bb58612bf361890d4563adafd2808e061d3c00026b4938a06e689c76b59fd04"


def test_function_key_is_pinned(fixed_fingerprint):
    opts = options_digest(Opts())
    assert opts == "19ba6605a0b7f63e626d49dbd9d0d4396958a334b747c3fe1c810b496705af0d"
    assert function_key(
        "1" * 64, "2" * 64, opts, False
    ) == "c46b6f6a70bf4a2b94cd1415acfceb72eb70d16ae6ea65d3204fba03a8f9bb9f"
    assert function_key(
        "1" * 64, "2" * 64, opts, True
    ) == "a407f5d1c7bc6e0ce8aa84b9393d572a977f8972582740c41335dd24a0b7a7e7"


def test_keys_fold_in_the_code_fingerprint(fixed_fingerprint, monkeypatch):
    cell = cell_key("int x;\n", None, Opts(), Inner())
    fn = function_key("1" * 64, "2" * 64, "3" * 64, False)
    monkeypatch.setattr(repro.store, "code_fingerprint", lambda: "e" * 64)
    assert cell_key("int x;\n", None, Opts(), Inner()) != cell
    assert function_key("1" * 64, "2" * 64, "3" * 64, False) != fn


# -- the class attributes the per-layer tracer wraps -----------------------


def test_patched_function_store_get_sees_every_function_lookup(
    tmp_path, monkeypatch
):
    # the tracer patches ``owner.__dict__[attr]``: get/put must be bound
    # on FunctionStore itself, not only inherited from Store
    seen: list[type] = []
    original = FunctionStore.__dict__["get"]

    def traced_get(self, key):
        seen.append(type(self))
        return original(self, key)

    monkeypatch.setattr(FunctionStore, "get", traced_get)
    assert "put" in FunctionStore.__dict__

    cache = ResultCache(tmp_path)
    fn_store = FunctionStore(root=None)
    spec = make_spec(source=TINY)
    cold = run_cells([spec], jobs=1, cache=cache, fn_store=fn_store)[spec.key]
    assert cold.ok and not cold.from_cache
    assert (fn_store.hits, fn_store.misses) == (0, 2)  # add, main
    assert seen == [FunctionStore, FunctionStore]

    warm = run_cells([spec], jobs=1, cache=None, fn_store=fn_store)[spec.key]
    assert warm.ok
    assert (fn_store.hits, fn_store.misses) == (2, 2)
    assert len(seen) == 4
    # the cell lookup went through ResultCache.get, which the patch misses
    assert (cache.hits, cache.misses) == (0, 1)
