"""Exactness of the allocator's shortcuts.

Two shortcuts make the allocator cheaper without changing a single
decision, and these tests pin that they stay exact:

* **graph reuse** — ``_coalesce``'s final iteration merges nothing, so
  the graph it built is the graph a fresh build over the rewritten
  function gives; ``allocate_function`` colors it instead of rebuilding.
  Checked against a fresh :func:`build_interference` on every function
  of the 14 workloads under the O0, full and pointer configurations, and
  for the iteration cap, where the last graph is stale and must not be
  reused.
* **heap select** — ``_color`` picks simplify candidates from a lazy
  heap; the sort-based select it replaced is kept below as the oracle and
  must agree on ``(coloring, spills)`` for random graphs and for the
  workload graphs, at K of 2, 4 and 32 (so the blocked, optimistic-spill
  path runs often).

The last class pins the layer boundaries that outside tooling wraps:
the pipeline calls ``allocate_function`` through ``repro.pipeline``, and
the allocator calls ``build_interference`` through
``repro.regalloc.coloring`` once per graph it builds.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pipeline as pipeline
import repro.regalloc.coloring as coloring
from repro.analysis.liveness import compute_liveness
from repro.analysis.loops import find_loops
from repro.ir import Function, IRBuilder
from repro.pipeline import compile_source
from repro.regalloc import (
    InterferenceGraph,
    RegAllocOptions,
    allocate_function,
    build_interference,
)
from repro.workloads import get_workload, workload_names
from tests.golden.test_golden_ir import CONFIGS

KS = (2, 4, 32)


def color_by_sorting(
    graph: InterferenceGraph, k: int
) -> tuple[dict[int, int], list[int]]:
    """The sort-based Briggs select that ``_color`` replaced: re-sorts the
    remaining nodes on every pick.  Kept as the oracle, as it was but
    for reading degrees and nodes off ``adjacency`` directly."""
    degrees = {n: len(ns) for n, ns in graph.adjacency.items()}
    adjacency = graph.adjacency
    removed: set[int] = set()
    stack: list[int] = []

    nodes = set(graph.adjacency)
    while len(removed) < len(nodes):
        candidate = None
        for node in sorted(nodes - removed, key=lambda n: (degrees[n], n)):
            if degrees[node] < k:
                candidate = node
                break
        if candidate is None:
            # blocked: push the cheapest spill candidate optimistically
            def cost(n: int) -> float:
                occ = graph.occurrences.get(n, 1.0)
                return occ / max(degrees[n], 1)

            candidate = min(nodes - removed, key=lambda n: (cost(n), n))
        removed.add(candidate)
        stack.append(candidate)
        for neighbor in adjacency.get(candidate, ()):
            if neighbor not in removed:
                degrees[neighbor] -= 1

    colors: dict[int, int] = {}
    spills: list[int] = []
    for node in reversed(stack):
        taken = {colors[n] for n in adjacency.get(node, ()) if n in colors}
        color = next((c for c in range(k) if c not in taken), None)
        if color is None:
            spills.append(node)
        else:
            colors[node] = color
    return colors, spills


@lru_cache(maxsize=None)
def _workload_functions(workload_name: str, config: str) -> tuple[Function, ...]:
    """The functions as the allocator receives them (regalloc off)."""
    wl = get_workload(workload_name)
    result = compile_source(
        wl.source,
        replace(CONFIGS[config], run_regalloc=False),
        name=wl.name,
        defines=wl.defines or None,
    )
    return tuple(result.module.functions.values())


def _depth(func: Function) -> dict[str, int]:
    forest = find_loops(func)
    return {label: forest.depth_of(label) for label in func.blocks}


def _fresh(func: Function, depth: dict[str, int]) -> InterferenceGraph:
    return build_interference(func, compute_liveness(func), depth)


WORKLOAD_CASES = [
    (name, config) for name in workload_names() for config in sorted(CONFIGS)
]


@pytest.mark.parametrize("workload_name,config", WORKLOAD_CASES)
def test_coalesce_graph_equals_fresh_build(workload_name, config):
    for original in _workload_functions(workload_name, config):
        func = copy.deepcopy(original)
        depth = _depth(func)
        _, graph = coloring._coalesce(func, RegAllocOptions(), depth)
        assert graph is not None, func.name
        fresh = _fresh(func, depth)
        assert graph.adjacency == fresh.adjacency, func.name
        assert graph.occurrences == fresh.occurrences, func.name


@pytest.mark.parametrize("workload_name,config", WORKLOAD_CASES)
def test_heap_select_matches_sorting_on_workloads(workload_name, config):
    for original in _workload_functions(workload_name, config):
        func = copy.deepcopy(original)
        depth = _depth(func)
        graphs = [_fresh(func, depth)]
        graphs.append(coloring._coalesce(func, RegAllocOptions(), depth)[1])
        for graph in graphs:
            for k in KS:
                assert coloring._color(graph, k) == color_by_sorting(graph, k), (
                    func.name,
                    k,
                )


def _copy_chain(length: int) -> Function:
    """``r0 = loadi``, then ``length`` copies each of the one before, and
    a sum of the last: a chain whose copies all coalesce in one
    iteration."""
    func = Function("chain")
    b = IRBuilder(func)
    b.start_block()
    regs = [b.loadi(1)]
    for _ in range(length):
        regs.append(b.mov(regs[-1]))
    total = b.add(regs[-1], regs[-1])
    b.ret(total)
    return func


class TestIterationCap:
    def test_capped_coalesce_returns_no_graph(self, monkeypatch):
        func = _copy_chain(3)
        monkeypatch.setattr(coloring, "COALESCE_ITERATIONS", 1)
        removed, graph = coloring._coalesce(func, RegAllocOptions(), _depth(func))
        assert removed > 0  # the only iteration merged...
        assert graph is None  # ...so its graph is stale

    def test_capped_allocation_rebuilds_the_graph(self, monkeypatch):
        func = _copy_chain(3)
        monkeypatch.setattr(coloring, "COALESCE_ITERATIONS", 1)
        builds = _count_builds(monkeypatch)
        report = allocate_function(func)
        assert report.rounds == 1
        # one build for the capped iteration, one fresh build to color
        assert builds == [2]
        assert report.coloring == coloring._color(_fresh(func, _depth(func)), 32)[0]


# ---------------------------------------------------------------------------
# random graphs
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw) -> InterferenceGraph:
    n = draw(st.integers(min_value=0, max_value=24))
    ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    adjacency: dict[int, set[int]] = {node: set() for node in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if draw(st.booleans()):
                adjacency[a].add(b)
                adjacency[b].add(a)
    # occurrence weights as the builder makes them: sums of powers of ten,
    # with some registers left out (they default to 1.0)
    occurrences = {
        node: float(draw(st.sampled_from([1, 2, 10, 11, 100, 1000, 10**6])))
        for node in ids
        if draw(st.booleans())
    }
    return InterferenceGraph(adjacency, occurrences)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from(KS))
def test_heap_select_matches_sorting_on_random_graphs(graph, k):
    assert coloring._color(graph, k) == color_by_sorting(graph, k)


# ---------------------------------------------------------------------------
# layer boundaries
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Patch ``repro.regalloc.coloring.<name>`` — the binding the
    allocator looks up — with a counting wrapper."""
    calls = [0]
    original = getattr(coloring, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(coloring, name, counting)
    return calls


def _count_builds(monkeypatch) -> list[int]:
    return _count_calls(monkeypatch, "build_interference")


class TestLayerBoundaries:
    def test_one_build_per_coalescing_iteration(self, monkeypatch):
        func = _copy_chain(3)
        builds = _count_builds(monkeypatch)
        report = allocate_function(func)
        assert report.copies_coalesced == 3
        # the merging iteration, then the one that merges nothing — whose
        # graph is colored, with no third build
        assert builds == [2]

    def test_no_coalescing_builds_once_per_round(self, monkeypatch):
        func = _copy_chain(3)
        builds = _count_builds(monkeypatch)
        report = allocate_function(func, RegAllocOptions(coalesce=False))
        assert builds == [report.rounds] == [1]

    @pytest.mark.parametrize("config", ["full", "pointer"])
    def test_builds_count_iterations_across_spill_rounds(self, monkeypatch, config):
        # water spills under K=32: several rounds, each coalescing again
        builds = _count_builds(monkeypatch)
        # the union rewrite runs once per iteration that merged
        merging = _count_calls(monkeypatch, "_apply_union")
        rounds = 0
        for original in _workload_functions("water", config):
            report = allocate_function(copy.deepcopy(original))
            rounds += report.rounds
        assert rounds > len(_workload_functions("water", config))
        # every round ends with one iteration that merges nothing
        assert builds == [merging[0] + rounds]

    def test_pipeline_calls_allocate_function_by_name(self, monkeypatch):
        calls: list[str] = []
        original = pipeline.allocate_function

        def counting(func, options=None):
            calls.append(func.name)
            return original(func, options)

        monkeypatch.setattr(pipeline, "allocate_function", counting)
        src = r"""
        int g;
        int bump(int x) { return x + 1; }
        int main(void) {
            int i;
            for (i = 0; i < 4; i++) { g = bump(g); }
            printf("%d\n", g);
            return 0;
        }
        """
        result = compile_source(src)
        assert sorted(calls) == sorted(result.regalloc_reports) == ["bump", "main"]
