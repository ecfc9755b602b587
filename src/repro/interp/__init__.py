"""Instrumented IL interpreter: deterministic execution with operation,
load, and store counting (the paper's measurement apparatus)."""

from .counters import Counters
from .engine import invalidate_decoded
from .machine import (
    ENGINES,
    Machine,
    MachineOptions,
    RunResult,
    c_div,
    c_mod,
    run_module,
    wrap_int,
)
from .memory import MemoryImage

__all__ = [
    "ENGINES",
    "Counters",
    "Machine",
    "MachineOptions",
    "MemoryImage",
    "RunResult",
    "c_div",
    "c_mod",
    "invalidate_decoded",
    "run_module",
    "wrap_int",
]
