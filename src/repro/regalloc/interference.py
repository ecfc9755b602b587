"""Interference graph construction.

Built from backward liveness the classic way: at each instruction, the
defined register interferes with everything live after it — except, for a
copy ``d = mov s``, with ``s`` itself (the exclusion that makes copies
coalescable, exactly the property the paper's promotion-generated copies
rely on).

Registers are plain integer ids throughout (see
:mod:`repro.analysis.liveness`).  Each definition adds its edges in one
set operation — ``adjacency[d] |= live``, less the copy source — which
records every edge from the side of the register defined while the
other was live; one pass over the adjacency sets at the end adds the
mirror half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import Liveness, compute_liveness
from ..ir.function import Function
from ..ir.instructions import Mov, Phi


@dataclass
class InterferenceGraph:
    """Adjacency sets over register ids."""

    adjacency: dict[int, set[int]] = field(default_factory=dict)
    #: number of defs+uses per register, weighted by loop depth
    occurrences: dict[int, float] = field(default_factory=dict)

    def interferes(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    def merge(self, keep: int, gone: int) -> None:
        """Fold node ``gone`` into ``keep`` (coalescing)."""
        adjacency = self.adjacency
        kept = adjacency.setdefault(keep, set())
        for neighbor in adjacency.pop(gone, ()):
            adjacency[neighbor].discard(gone)
            if neighbor != keep:
                adjacency[neighbor].add(keep)
                kept.add(neighbor)
        self.occurrences[keep] = self.occurrences.get(keep, 0) + self.occurrences.pop(
            gone, 0
        )


def build_interference(
    func: Function,
    liveness: Liveness | None = None,
    loop_depth: dict[str, int] | None = None,
) -> InterferenceGraph:
    if liveness is None:
        liveness = compute_liveness(func)
    adjacency: dict[int, set[int]] = {param.id: set() for param in func.params}
    occurrences: dict[int, float] = {}

    for label, block in func.blocks.items():
        weight = 10.0 ** min(loop_depth.get(label, 0) if loop_depth else 0, 6)
        live = set(liveness.live_out.get(label, ()))
        for instr in reversed(block.instrs):
            dest = instr.dest
            if dest is not None:
                d = dest.id
                occurrences[d] = occurrences.get(d, 0) + weight
                live.discard(d)
                neighbors = adjacency.get(d)
                if neighbors is None:
                    neighbors = adjacency[d] = set()
                # the copy itself adds no edge to its source; an edge the
                # two registers already have from elsewhere stays
                src = instr.src.id if isinstance(instr, Mov) else None
                if src in live and src not in neighbors:
                    neighbors |= live
                    neighbors.discard(src)
                else:
                    neighbors |= live
            if isinstance(instr, Phi):
                continue
            for reg in instr.uses():
                u = reg.id
                occurrences[u] = occurrences.get(u, 0) + weight
                live.add(u)
                if u not in adjacency:
                    adjacency[u] = set()
    # parameters are defined on entry and interfere with whatever is live
    # into the entry block, and with each other
    entry_live = liveness.live_in.get(func.entry, frozenset())
    param_ids = {param.id for param in func.params}
    for param in param_ids:
        adjacency[param] |= entry_live | param_ids
        adjacency[param].discard(param)

    # mirror every edge recorded from one side only
    for node, neighbors in list(adjacency.items()):
        for other in neighbors:
            mirror = adjacency.get(other)
            if mirror is None:
                adjacency[other] = {node}
            else:
                mirror.add(node)
    return InterferenceGraph(adjacency, occurrences)
