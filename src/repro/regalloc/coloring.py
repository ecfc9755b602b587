"""Graph-coloring register allocation (Chaitin–Briggs).

The paper's compiler uses the Briggs–Cooper–Torczon allocator; promoted
values "compete for registers on an equal footing with other values" and,
when demand exceeds supply, some are spilled — occasionally making
promotion a net loss (the paper's *water* anecdote).  We reproduce that
machinery:

* *coalescing* — copies whose source and destination do not interfere
  are merged (Briggs-conservative test by default), which is what erases
  the ``mov`` operations promotion introduced;
* *simplify/select* — Briggs optimistic coloring with K colors;
* *spilling* — uncolored registers get a spill tag (a stack slot); every
  definition is followed by an ``sstore`` and every use preceded by an
  ``sload``, then the allocator retries.  The inserted memory traffic is
  exactly what the paper charges against over-aggressive promotion.

Colors are never written back into the instruction stream: the
interpreter executes virtual registers directly, so the observable
effects of allocation are the coalesced copies and the spill code —
precisely the two quantities the evaluation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from ..analysis.liveness import compute_liveness
from ..analysis.loops import find_loops
from ..ir.function import Function
from ..ir.instructions import Instr, LoadAddr, LoadI, Mov, ScalarLoad, ScalarStore, VReg
from ..ir.module import Module
from ..ir.tags import Tag, TagKind
from .interference import InterferenceGraph, build_interference


#: coalescing iterations per allocation round before giving up on
#: reaching a fixed point
COALESCE_ITERATIONS = 8


@dataclass
class RegAllocOptions:
    num_registers: int = 32
    coalesce: bool = True
    #: Briggs-conservative coalescing; aggressive (Chaitin) when False
    conservative: bool = True
    max_rounds: int = 12


@dataclass
class RegAllocReport:
    function: str
    rounds: int = 0
    copies_coalesced: int = 0
    spilled_registers: list[int] = field(default_factory=list)
    spill_loads: int = 0
    spill_stores: int = 0
    colors_used: int = 0
    coloring: dict[int, int] = field(default_factory=dict)


def allocate_function(
    func: Function, options: RegAllocOptions | None = None
) -> RegAllocReport:
    options = options or RegAllocOptions()
    report = RegAllocReport(function=func.name)
    forest = find_loops(func)
    depth = {label: forest.depth_of(label) for label in func.blocks}

    for round_no in range(options.max_rounds):
        report.rounds = round_no + 1
        graph = None
        if options.coalesce:
            removed, graph = _coalesce(func, options, depth)
            report.copies_coalesced += removed
        if graph is None:
            graph = build_interference(func, compute_liveness(func), depth)
        coloring, spills = _color(graph, options.num_registers)
        if not spills:
            report.coloring = coloring
            report.colors_used = len(set(coloring.values())) if coloring else 0
            return report
        loads, stores = _spill(func, spills)
        report.spilled_registers.extend(spills)
        report.spill_loads += loads
        report.spill_stores += stores
    # give up gracefully: leave the last coloring attempt in the report
    report.coloring = coloring
    report.colors_used = len(set(coloring.values())) if coloring else 0
    return report


def allocate_module(
    module: Module, options: RegAllocOptions | None = None
) -> dict[str, RegAllocReport]:
    return {
        func.name: allocate_function(func, options)
        for func in module.functions.values()
    }


# ---------------------------------------------------------------------------
# coalescing
# ---------------------------------------------------------------------------

def _coalesce(
    func: Function, options: RegAllocOptions, depth
) -> tuple[int, InterferenceGraph | None]:
    """Merge non-interfering copy pairs until none remain.

    Returns the number of copies removed and the interference graph of
    the final iteration.  That iteration merged nothing, so its graph is
    exactly the one a fresh build over the rewritten function would give
    and the caller colors it directly.  ``None`` when the iteration cap
    stopped the loop after a merge (the graph is stale then).
    """
    removed = 0
    param_ids = {p.id for p in func.params}
    for _ in range(COALESCE_ITERATIONS):
        graph = build_interference(func, compute_liveness(func), depth)
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for block in func.blocks.values():
            for instr in block.instrs:
                if not isinstance(instr, Mov):
                    continue
                a = find(instr.dst.id)
                b = find(instr.src.id)
                if a == b:
                    continue
                if graph.interferes(a, b):
                    continue
                if options.conservative and not _briggs_ok(
                    graph, a, b, options.num_registers
                ):
                    continue
                # keep the parameter id if one side is a parameter (its
                # identity is fixed by the calling convention)
                keep, gone = (a, b) if b not in param_ids else (b, a)
                if gone in param_ids:
                    continue  # never merge two parameters
                graph.merge(keep, gone)
                parent[gone] = keep
        if not parent:
            return removed, graph
        removed += _apply_union(func, {reg: find(reg) for reg in parent})
    return removed, None


def _briggs_ok(graph: InterferenceGraph, a: int, b: int, k: int) -> bool:
    """Briggs' test: the merged node has fewer than ``k`` neighbors of
    significant degree (``>= k``)."""
    adjacency = graph.adjacency
    significant = 0
    for n in adjacency[a] | adjacency[b]:
        if len(adjacency[n]) >= k:
            significant += 1
            if significant == k:
                return False
    return True


def _apply_union(func: Function, root: dict[int, int]) -> int:
    """Rewrite the function with the coalescing substitution (``root``
    maps every merged-away register id to its representative); delete
    self-copies.  Returns the number of copies deleted."""
    cache: dict[int, VReg] = {}

    def subst(reg: VReg) -> VReg:
        # the representative takes the hint of the first merged-away
        # register the rewrite meets
        rep = root[reg.id]
        if rep not in cache:
            cache[rep] = VReg(rep, reg.hint)
        return cache[rep]

    removed = 0
    for block in func.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            mapping = {reg: subst(reg) for reg in set(instr.uses()) if reg.id in root}
            if mapping:
                instr.replace_uses(mapping)
            dest = instr.dest
            if dest is not None and dest.id in root:
                _set_dest(instr, subst(dest))
            if isinstance(instr, Mov) and instr.dst.id == instr.src.id:
                removed += 1
                continue
            new_instrs.append(instr)
        block.instrs = new_instrs
    return removed


def _set_dest(instr: Instr, reg: VReg) -> None:
    instr.dst = reg  # type: ignore[attr-defined]


def _rematerialize(func: Function, defs: dict[int, Instr]) -> None:
    """Re-issue the defining constant (``loadi`` or ``la``) before each use
    of the given registers, splitting their live ranges to a single
    instruction each (zero memory traffic)."""

    def fresh_def(reg_id: int, temp: VReg) -> Instr:
        template = defs[reg_id]
        if isinstance(template, LoadI):
            return LoadI(temp, template.value)
        assert isinstance(template, LoadAddr)
        return LoadAddr(temp, template.tag, template.offset)

    for block in func.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            used = [r for r in set(instr.uses()) if r.id in defs]
            if used:
                mapping = {}
                for reg in used:
                    temp = func.new_vreg("rm")
                    new_instrs.append(fresh_def(reg.id, temp))
                    mapping[reg] = temp
                instr.replace_uses(mapping)
            dest = instr.dest
            if dest is not None and dest.id in defs and isinstance(
                instr, (LoadI, LoadAddr)
            ):
                continue  # original definitions become dead
            new_instrs.append(instr)
        block.instrs = new_instrs


# ---------------------------------------------------------------------------
# simplify / select
# ---------------------------------------------------------------------------

def _color(
    graph: InterferenceGraph, k: int
) -> tuple[dict[int, int], list[int]]:
    """Briggs optimistic coloring.  Returns (coloring, actual spills).

    Simplify removes the remaining node of least ``(degree, id)`` while
    that degree is below ``k``.  Those candidates sit in a lazy heap: a
    node is pushed when its degree drops below ``k`` and again each time
    it drops further.  Degrees only fall, so a node's current entry is
    its smallest and surfaces before its out-of-date ones; entries of
    removed nodes are skipped.  The top entry is then the least remaining
    ``(degree, id)`` below ``k`` — the same pick as sorting all remaining
    nodes.  An empty heap means every remaining node is significant:
    simplify is blocked.
    """
    adjacency = graph.adjacency
    occurrences = graph.occurrences
    degrees = {n: len(neighbors) for n, neighbors in adjacency.items()}
    heap = [(d, n) for n, d in degrees.items() if d < k]
    heapify(heap)
    remaining = set(degrees)
    stack: list[int] = []

    while remaining:
        while heap and heap[0][1] not in remaining:
            heappop(heap)
        if heap:
            candidate = heappop(heap)[1]
        else:
            # blocked: push the cheapest spill candidate optimistically
            candidate = min(
                remaining,
                key=lambda n: (occurrences.get(n, 1.0) / max(degrees[n], 1), n),
            )
        remaining.discard(candidate)
        stack.append(candidate)
        for neighbor in adjacency[candidate]:
            if neighbor in remaining:
                degree = degrees[neighbor] - 1
                degrees[neighbor] = degree
                if degree < k:
                    heappush(heap, (degree, neighbor))

    # select: each node takes the lowest color no colored neighbor has
    colors = frozenset(range(k))
    coloring: dict[int, int] = {}
    spills: list[int] = []
    for node in reversed(stack):
        free = colors.difference(map(coloring.get, adjacency[node]))
        if free:
            coloring[node] = min(free)
        else:
            spills.append(node)
    return coloring, spills


# ---------------------------------------------------------------------------
# spilling
# ---------------------------------------------------------------------------

def _spill(func: Function, spills: list[int]) -> tuple[int, int]:
    """Insert spill code for each register id in ``spills``.

    Registers whose only definition is a ``loadi`` are *rematerialized*
    (the constant is re-issued before each use) instead of spilled — the
    classic Chaitin/Briggs refinement, without which hoisted constants
    turn into gratuitous memory traffic.  Everything else gets a spill
    tag: every definition is followed by a store, every use preceded by a
    load.  Returns (loads, stores) inserted.
    """
    candidates: dict[int, list[Instr] | None] = {r: [] for r in spills}
    for block in func.blocks.values():
        for instr in block.instrs:
            dest = instr.dest
            if dest is None or dest.id not in candidates:
                continue
            defs = candidates[dest.id]
            if defs is None:
                continue
            if isinstance(instr, (LoadI, LoadAddr)):
                defs.append(instr)
            else:
                # a non-constant definition disqualifies rematerialization
                candidates[dest.id] = None

    def _same_value(defs: list[Instr]) -> bool:
        first = defs[0]
        if isinstance(first, LoadI):
            return all(
                isinstance(d, LoadI) and d.value == first.value for d in defs
            )
        assert isinstance(first, LoadAddr)
        return all(
            isinstance(d, LoadAddr)
            and d.tag == first.tag
            and d.offset == first.offset
            for d in defs
        )

    remat_def: dict[int, Instr] = {
        reg_id: defs[0]
        for reg_id, defs in candidates.items()
        if defs and _same_value(defs)
    }
    remat_ids = set(remat_def)

    if remat_ids:
        _rematerialize(func, remat_def)
    spills = [s for s in spills if s not in remat_ids]
    if not spills:
        return 0, 0

    spill_tags: dict[int, Tag] = {}
    for reg_id in spills:
        tag = Tag(
            f"{func.name}.spill{reg_id}",
            TagKind.LOCAL,
            is_scalar=True,
            owner=func.name,
        )
        func.local_tags.append(tag)
        func.local_tag_sizes[tag.name] = 8
        spill_tags[reg_id] = tag

    loads = stores = 0
    spill_set = set(spills)
    for block in func.blocks.values():
        new_instrs: list[Instr] = []
        for instr in block.instrs:
            used = [r for r in set(instr.uses()) if r.id in spill_set]
            if used:
                mapping = {}
                for reg in used:
                    temp = func.new_vreg("sp")
                    new_instrs.append(ScalarLoad(temp, spill_tags[reg.id]))
                    loads += 1
                    mapping[reg] = temp
                instr.replace_uses(mapping)
            new_instrs.append(instr)
            dest = instr.dest
            if dest is not None and dest.id in spill_set:
                new_instrs.append(ScalarStore(dest, spill_tags[dest.id]))
                stores += 1
        block.instrs = new_instrs

    # spilled parameters are defined by the call itself, not by any
    # instruction: store them once on entry (after the rewrite above so
    # these stores keep their register operands)
    entry_stores = [
        ScalarStore(param, spill_tags[param.id])
        for param in func.params
        if param.id in spill_set
    ]
    if entry_stores:
        func.entry_block().instrs[0:0] = entry_stores
        stores += len(entry_stores)
    return loads, stores
