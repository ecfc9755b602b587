"""Per-layer measurement for the traced run: wrappers installed from the
benchmark's own files around the public functions each layer exposes.

Each wrapper patches the name in the namespace that *looks it up* (the
pipeline calls ``repro.pipeline.run_sccp``, so that is the binding that
is replaced, not ``repro.opt.constprop.run_sccp``).  Spans stay in memory
as ``[name, start, end, parent, group]`` rows; ``group`` is the cell or
fuzz probe the span belongs to.  A span's *self time* is its duration
minus that of the wrapped calls nested directly inside it, so nested
layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

#: (module, attribute path, span name) for every timed layer boundary;
#: the span name is the per-layer metric its self time is reported as
TIMED = (
    ("repro.pipeline", "compile_source", "compile.other_s"),
    ("repro.runner.scheduler", "compile_source", "compile.other_s"),
    ("repro.pipeline", "compile_c", "frontend.s"),
    ("repro.pipeline", "run_modref", "analysis.modref.s"),
    ("repro.pipeline", "run_points_to", "analysis.pointsto.s"),
    ("repro.pipeline", "apply_points_to", "analysis.pointsto.s"),
    ("repro.pipeline", "refine_memory_ops", "analysis.tagrefine.s"),
    ("repro.pipeline", "clean_function", "opt.clean.s"),
    ("repro.pipeline", "run_value_numbering", "opt.valuenum.s"),
    ("repro.pipeline", "run_sccp", "opt.constprop.s"),
    ("repro.pipeline", "promote_function", "opt.promotion.s"),
    ("repro.pipeline", "run_licm", "opt.licm.s"),
    ("repro.pipeline", "promote_pointers_function", "opt.pointer_promotion.s"),
    ("repro.pipeline", "run_pre", "opt.pre.s"),
    ("repro.pipeline", "run_dce", "opt.dce.s"),
    ("repro.pipeline", "allocate_function", "regalloc.s"),
    ("repro.regalloc.coloring", "build_interference", "regalloc.interference_s"),
    ("repro.pipeline", "verify_module", "ir.verify.s"),
    ("repro.pipeline", "verify_function", "ir.verify.s"),
    ("repro.pipeline", "run_module", "interp.s"),
    ("repro.inccomp.store", "FunctionStore.get", "inccomp.get_s"),
    ("repro.inccomp.store", "FunctionStore.put", "inccomp.put_s"),
    ("repro.fuzz.campaign", "generate_program", "fuzz.gen.s"),
    ("repro.fuzz.campaign", "classify_outcomes", "fuzz.classify.s"),
)

#: calls that are only counted (too fine-grained to time)
COUNTED = (
    ("repro.interp.engine", "DecodedFunction.decode", "interp.decoded_blocks"),
    ("repro.interp.tier2", "Tier2Function.decode", "interp.decoded_blocks"),
)

#: the span that opens one unit of work (a Figures cell, a fuzz probe)
GROUP_BOUNDARY = ("repro.runner.scheduler", "execute_cell")

TIME_METRICS = tuple(dict.fromkeys(name for _, _, name in TIMED))
COUNT_METRICS = (
    "interp.ops",
    "interp.decoded_blocks",
    "regalloc.interference_builds",
    "regalloc.rounds",
    "regalloc.spilled_registers",
    "opt.promotion.tags_promoted",
    "opt.promotion.refs_rewritten",
    "inccomp.hits",
    "inccomp.misses",
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """In-memory span recorder plus the counters read at the same
    boundaries; :meth:`install` / :meth:`uninstall` patch and restore."""

    def __init__(self, group_of=None) -> None:
        #: ``group_of(spec)`` names the cell/probe a scheduler cell is in
        self.group_of = group_of or (lambda spec: f"{spec.workload}:{spec.variant}")
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._group: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        row = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self._group]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: list) -> None:
        self._stack.pop()
        row[2] = perf_counter()

    def _observe(self, name: str, result) -> None:
        """Counters carried by a layer's return value."""
        if name == "interp.s":
            self.counts["interp.ops"] += result.counters.total_ops
        elif name == "regalloc.s":
            self.counts["regalloc.rounds"] += result.rounds
            self.counts["regalloc.spilled_registers"] += len(result.spilled_registers)
        elif name == "regalloc.interference_s":
            self.counts["regalloc.interference_builds"] += 1
        elif name == "opt.promotion.s":
            self.counts["opt.promotion.tags_promoted"] += len(result.promoted_tags)
            self.counts["opt.promotion.refs_rewritten"] += result.references_rewritten
        elif name == "inccomp.get_s":
            self.counts["inccomp.hits" if result is not None else "inccomp.misses"] += 1

    def _timed(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            row = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(row)
            self._observe(name, result)
            return result

        return wrapper

    def _counted(self, name: str, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _grouped(self, original):
        @functools.wraps(original)
        def wrapper(spec, *args, **kwargs):
            outer = self._group
            self._group = self.group_of(spec)
            row = self._open("cell")
            try:
                return original(spec, *args, **kwargs)
            finally:
                self._close(row)
                self._group = outer

        return wrapper

    def _probe_named(self, original, name_of):
        """Spans outside any scheduler cell (program generation and
        classification) still join their probe's group."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outer = self._group
            self._group = name_of(args)
            try:
                return original(*args, **kwargs)
            finally:
                self._group = outer

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        for module_name, path, name in TIMED:
            owner, attr = _resolve(module_name, path)
            wrapper = self._timed(name, getattr(owner, attr))
            if name == "fuzz.gen.s":
                wrapper = self._probe_named(wrapper, lambda args: f"fuzz-{args[0]}")
            elif name == "fuzz.classify.s":
                wrapper = self._probe_named(wrapper, lambda args: args[0].name)
            self._patch(owner, attr, wrapper)
        for module_name, path, name in COUNTED:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))
        owner, attr = _resolve(*GROUP_BOUNDARY)
        self._patch(owner, attr, self._grouped(getattr(owner, attr)))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- derived numbers -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the in-process layers define."""
        self_times = self.self_times()
        metrics = {name: self_times.get(name, 0.0) for name in TIME_METRICS}
        for name in COUNT_METRICS:
            metrics[name] = self.counts.get(name, 0)
        lookups = self.counts["inccomp.hits"] + self.counts["inccomp.misses"]
        metrics["inccomp.hit_ratio"] = (
            self.counts["inccomp.hits"] / lookups if lookups else 0.0
        )
        return metrics

    def deterministic_counts(self) -> dict[str, int]:
        return {name: self.counts.get(name, 0) for name in COUNT_METRICS}

    def groups(self) -> int:
        return len({row[4] for row in self.spans if row[4] is not None})
