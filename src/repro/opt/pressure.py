"""Register-pressure-aware promotion throttling (the paper's section 3.4
future work, in the spirit of Carr's bin packing).

The paper closes with: "register promotion increases the demand for
registers ... beyond some point, the memory accesses removed by the
transformation were balanced by the spills added during register
allocation.  [Carr] adopted a bin-packing discipline to throttle the
promotion process.  As we extend our work, we will undoubtedly encounter
the same problem and need a similar solution."

This module is that solution:

* :func:`estimate_loop_pressure` computes MAXLIVE — the maximum number of
  simultaneously live virtual registers at any instruction boundary
  inside a loop — from the liveness analysis;
* :func:`plan_promotions` walks the loop forest outermost-first and
  budgets each loop: a tag is only kept promotable while the loop's
  estimated pressure plus the promoted homes (including those inherited
  from enclosing loops) stays within the register budget, minus a small
  reserve for allocator temporaries.  Tags are ranked by *frequency of
  use* (static reference count weighted by loop depth), so the throttle
  keeps the references that matter — exactly the "explicit
  decision-making process that considers register pressure and frequency
  of use" the paper proposes.

The result plugs into :class:`~repro.opt.promotion.PromotionOptions` via
``pressure_budget``; `benchmarks/bench_a2_register_pressure.py` shows it
recovering the water loss while keeping the wins elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import Liveness, compute_liveness
from ..analysis.loops import Loop, LoopForest
from ..ir.function import Function
from ..ir.instructions import CLoad, ScalarLoad, ScalarStore
from ..ir.tags import Tag


@dataclass
class PressurePlan:
    """Which tags each loop may promote under the budget."""

    #: loop header -> tags allowed to stay promotable there
    allowed: dict[str, frozenset[Tag]] = field(default_factory=dict)
    #: loop header -> MAXLIVE estimate before promotion
    base_pressure: dict[str, int] = field(default_factory=dict)
    #: tags dropped anywhere by the throttle
    dropped: set[Tag] = field(default_factory=set)

    def allows(self, header: str, tag: Tag) -> bool:
        allowed = self.allowed.get(header)
        return allowed is None or tag in allowed


def estimate_loop_pressure(
    func: Function, loop: Loop, liveness: Liveness | None = None
) -> int:
    """MAXLIVE across the loop body.

    Walks each block backwards from its live-out set, tracking the live
    set size at every instruction boundary — the same quantity a
    Chaitin-style allocator ultimately has to color.
    """
    if liveness is None:
        liveness = compute_liveness(func)
    peak = 0
    for label in loop.blocks:
        block = func.block(label)
        live = set(liveness.live_out.get(label, frozenset()))
        peak = max(peak, len(live))
        for instr in reversed(block.instrs):
            dest = instr.dest
            if dest is not None:
                live.discard(dest.id)
            live.update(reg.id for reg in instr.uses())
            peak = max(peak, len(live))
    return peak


def tag_use_frequency(func: Function, loop: Loop) -> dict[Tag, int]:
    """Static reference counts per tag inside the loop, weighted by the
    nesting depth of the referencing block relative to the loop."""
    counts: dict[Tag, int] = {}
    for label in loop.blocks:
        for instr in func.block(label).instrs:
            if isinstance(instr, (ScalarLoad, ScalarStore, CLoad)):
                counts[instr.tag] = counts.get(instr.tag, 0) + 1
    return counts


def plan_promotions(
    func: Function,
    forest: LoopForest,
    promotable: dict[str, frozenset[Tag]],
    num_registers: int,
    reserve: int = 4,
) -> PressurePlan:
    """Budget each loop's promotions.

    ``promotable`` maps loop headers to the Figure 1 PROMOTABLE sets.
    The budget for a loop is ``num_registers - reserve - MAXLIVE(loop)``
    plus the homes already paid for by enclosing loops (a tag promoted in
    the parent occupies its register either way, so it is free here).
    """
    plan = PressurePlan()
    liveness = compute_liveness(func)

    def budget_loop(loop: Loop, inherited: frozenset[Tag]) -> None:
        candidates = promotable.get(loop.header, frozenset())
        base = estimate_loop_pressure(func, loop, liveness)
        plan.base_pressure[loop.header] = base
        headroom = num_registers - reserve - base
        free = candidates & inherited
        new_candidates = sorted(
            candidates - inherited,
            key=lambda t: (-tag_use_frequency(func, loop).get(t, 0), t.name),
        )
        kept = set(free)
        for tag in new_candidates:
            if len(kept - inherited) < max(headroom, 0):
                kept.add(tag)
            else:
                plan.dropped.add(tag)
        plan.allowed[loop.header] = frozenset(kept)
        for child in loop.children:
            budget_loop(child, inherited | frozenset(kept))

    for top in forest.top_level():
        budget_loop(top, frozenset())
    return plan
