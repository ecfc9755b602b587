"""Backward liveness analysis.

Standard iterative bit-set data flow over the CFG:

    LIVEOUT(b) = union over successors s of LIVEIN(s)
    LIVEIN(b)  = UEVAR(b) | (LIVEOUT(b) - VARKILL(b))

Phi nodes get the usual treatment: a phi's operands are live out of the
corresponding predecessor, not live into the phi's own block.  The register
allocator consumes this analysis to build the interference graph.

Sets hold integer register ids (``VReg.id``), not :class:`VReg` objects:
a register's identity is its id alone, and hashing a plain ``int`` is
far cheaper than hashing a dataclass, which matters because the
allocator recomputes liveness for every interference graph it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.cfg import postorder
from ..ir.function import Function
from ..ir.instructions import Call, Phi


@dataclass
class Liveness:
    """Register ids live into and out of each reachable block."""

    live_in: dict[str, frozenset[int]]
    live_out: dict[str, frozenset[int]]


def compute_liveness(func: Function) -> Liveness:
    order = postorder(func)  # backward problems converge fastest in postorder
    labels = set(order)

    uevar: dict[str, set[int]] = {}
    # every register a block defines, its phis' included: phi definitions
    # happen at the top of the block, so they are never live into it
    varkill: dict[str, set[int]] = {}
    # registers used by phis in successor blocks, keyed by the predecessor
    # through which the value flows
    phi_uses_out: dict[str, set[int]] = {label: set() for label in labels}
    successors: dict[str, tuple[str, ...]] = {}

    for label in order:
        block = func.block(label)
        successors[label] = tuple(s for s in block.successors() if s in labels)
        upward: set[int] = set()
        killed: set[int] = set()
        for instr in block.instrs:
            if isinstance(instr, Phi):
                killed.add(instr.dst.id)
                for pred_label, reg in instr.incoming.items():
                    if pred_label in labels:
                        phi_uses_out[pred_label].add(reg.id)
                continue
            for reg in instr.uses():
                if reg.id not in killed:
                    upward.add(reg.id)
            dest = instr.dest
            if dest is not None:
                killed.add(dest.id)
        uevar[label] = upward
        varkill[label] = killed

    live_in: dict[str, set[int]] = {label: set() for label in labels}
    live_out: dict[str, set[int]] = {}

    changed = True
    while changed:
        changed = False
        for label in order:
            out = phi_uses_out[label].union(*(live_in[s] for s in successors[label]))
            live_out[label] = out
            new_in = uevar[label] | (out - varkill[label])
            # the sets only grow from empty, so a change shows in the size
            if len(new_in) != len(live_in[label]):
                live_in[label] = new_in
                changed = True

    return Liveness(
        live_in={l: frozenset(s) for l, s in live_in.items()},
        live_out={l: frozenset(s) for l, s in live_out.items()},
    )


def live_across_calls(func: Function, liveness: Liveness | None = None) -> set[int]:
    """Ids of registers live across at least one call site — used by
    spill heuristics (caller-saved pressure)."""
    if liveness is None:
        liveness = compute_liveness(func)
    result: set[int] = set()
    for label, block in func.blocks.items():
        live = set(liveness.live_out[label])
        for instr in reversed(block.instrs):
            if instr.dest is not None:
                live.discard(instr.dest.id)
            if isinstance(instr, Call):
                result |= live
            live.update(reg.id for reg in instr.uses())
    return result
