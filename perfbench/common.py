"""Checkout paths, statistics, memory readings, and the result record.

Nothing here imports :mod:`repro`; :func:`bootstrap` puts the checkout's
``src/`` on ``sys.path`` first, and refuses to run when it is missing, so
the benchmark can never measure an installed copy of the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes (temporary server dirs, traced-run
#: records, cold-program references) lives under here; gitignored
WORK = ROOT / ".perfbench"

#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run (missing sources, server failed to start)."""


def bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))


def code_digest() -> str:
    """Digest of the system's and the benchmark's sources: traced-run
    records are only compared between runs of the same code."""
    digest = hashlib.sha256()
    sources = [*(SRC / "repro").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sorted(sources):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y


#: seconds :func:`reference_loop` takes on a host at reference speed.  The
#: batch workloads quote their times at this speed: the speed of a shared
#: host drifts by up to 2x within a minute, and a pure-Python reference
#: timed beside the work drifts with it (see README)
REFERENCE_LOOP_S = 0.015


def reference_loop(rounds: int = 60000) -> int:
    """A fixed piece of plain Python (dict, list, attribute and integer
    work, no allocation that outlives it) that shares nothing with
    ``repro``: timed beside each operation, it measures how fast the
    host runs Python at that moment."""
    table = {k: k for k in range(64)}
    cells = [0] * 64
    point = _Point(1, 2)
    acc = 0
    for i in range(rounds):
        k = i & 63
        table[k] = table[k] + point.x
        cells[k] += point.y
        acc += table[(i * 7) & 63] - cells[k] % 3
    return acc


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it (the maximum when there
    are too few samples for any)."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    index = count - 1 - TAIL_BEYOND if count > TAIL_BEYOND else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def proc_hwm_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0.0


def proc_children(pid: int) -> list[int]:
    """Direct children of ``pid`` (empty once it has exited)."""
    children: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return children


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, IndexError):
        return False
    return state != "Z"


@dataclass
class Outcome:
    """One run's verdict plus its metrics, printed as the last line."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: context printed before the record (percentiles, sample counts)
    notes: dict[str, object] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
