"""Tier-2 specializing engine: register promotion applied to ourselves.

The block-threaded engine (:mod:`repro.interp.engine`) already decides
everything decidable once per block, but it still pays, per executed
block, for a dict lookup, a Python call, ``regs``-list indexing on every
operand, and a ``Counters`` attribute update.  The paper's point — hoist
memory references into registers over a *region* and spill only at its
boundary — applies one level up: this engine selects hot regions, compiles
each into **one** generated Python function in which

* every virtual register used by the region is a Python local (``r7``),
* every promotion-eligible scalar slot is a Python local too (``x2`` for
  frame slots, ``g0`` for globals), loaded at region entry and written
  back at region exits,
* counters accumulate in plain local deltas (``_t``, ``_ld``, ...) flushed
  to the shared :class:`~repro.interp.counters.Counters` only at calls and
  region boundaries,
* control flow is a ``while``/``elif`` dispatch over an integer ``_pc`` —
  no per-block Python call at all.

Region selection
----------------

Candidate regions are the whole function body (when it is small enough)
and every natural loop (via :func:`repro.analysis.loops.find_loops`), keyed
by their header block.  Each candidate header gets a probe that counts
entries; past :data:`HOT_THRESHOLD` the region is template-compiled and
the probe dispatches straight into it.  Cold and oversized code keeps
running on the block-threaded tier unchanged.

Promotion rules (the paper's own criteria, applied to the interpreter)
----------------------------------------------------------------------

A frame slot is promoted iff it is scalar-sized and **no** ``LoadAddr``
in the function ever takes its address — then no pointer to it can exist
anywhere, so neither callees nor ``MemLoad``/``MemStore`` in the region
can alias it and it may live in a Python local across calls.  A global
is promoted under the same no-address rule (checked module-wide) and only
in call-free regions, because a callee may reference a global by name
without any pointer.  Everything else keeps its exact memory traffic.
Promoted accesses still count as loads/stores — the engine changes how
the program executes, never what the experiment measures.

Exact handoff
-------------

Observables (output, exit code, counters, ``block_visits``, ``clock()``)
stay bit-identical with the reference and threaded engines:

* each segment's budget guard (a block is split into segments after
  every call, exactly as in the threaded tier) folds the segment's
  static mix into the local delta and compares against the remaining
  budget; on overrun it unwinds the fold, spills registers + promoted
  slots + counter deltas, and finishes the block on the reference
  engine's stepper (:meth:`~repro.interp.machine.Machine._exec_block`)
  from the segment's first instruction — the same handoff the threaded
  tier's guard makes, so the raise lands on the exact per-instruction
  operation count with the reference engine's counters and message;
* calls flush counter deltas first — ``clock()`` reads the exact
  per-instruction ``total_ops`` — and recompute the budget after;
* any exception (trap, resource limit, ``exit()``) crosses a
  ``try/except BaseException`` that writes promoted slots back to memory
  and flushes the deltas before re-raising, so traps surface with slots
  flushed.

The compiled tier lives at ``module._tier2`` beside the threaded decode
cache, validated by the same identity signature, dropped by
:func:`~repro.interp.engine.invalidate_decoded` and on pickle/deepcopy.
"""

from __future__ import annotations

from typing import Any, Callable

from ..analysis.loops import find_loops
from ..errors import InterpError, ResourceLimitError
from ..intrinsics import is_intrinsic
from ..ir.function import Function
from ..ir.instructions import (
    BinOp,
    Branch,
    Call,
    CLoad,
    Jump,
    LoadAddr,
    LoadI,
    MemLoad,
    MemStore,
    Mov,
    Nop,
    Phi,
    Ret,
    ScalarLoad,
    ScalarStore,
    UnOp,
)
from ..ir.module import Module
from ..ir.opcodes import Opcode
from ..ir.tags import TagKind
from .machine import Machine, _binop, _unop, c_div, c_mod
from .memory import _ALIGN, STACK_LIMIT, MemoryImage, _align
from .engine import (
    _CMP_SRC,
    _COUNTER_FIELDS,
    _WRAP_SRC,
    DecodedFunction,
    DecodedModule,
    _compile_block,
    _make_tail,
    _raiser,
    _segment_mix,
    _trap_load,
    _trap_store,
)

#: region entries before a candidate header is template-compiled
HOT_THRESHOLD = 8

#: largest region (in blocks) the template compiler will take on
REGION_CAP = 96

#: counter delta local per Counters field (total_ops is ``_t``)
_DELTA = {
    "loads": "_ld",
    "stores": "_st",
    "scalar_loads": "_sl",
    "scalar_stores": "_ss",
    "general_loads": "_gl",
    "general_stores": "_gs",
    "copies": "_cp",
    "calls": "_ca",
    "branches": "_br",
}

#: bitwise ops whose both-int results are always in signed 64-bit range
_BIT_SRC = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}

_WRAP_CHECK = (
    "if {v}.__class__ is int and not"
    " -9223372036854775808 <= {v} <= 9223372036854775807:"
)
_WRAP_MASK = (
    "{v} = (({v} + 9223372036854775808)"
    " & 18446744073709551615) - 9223372036854775808"
)


class Tier2Function(DecodedFunction):
    """Threaded decode state plus the specializing tier for hot regions."""

    __slots__ = (
        "candidates",
        "regions",
        "counts",
        "_local_addressed",
        "frame_offsets",
        "frame_size",
        "nparams",
        "entry_fresh",
        "fresh_count",
        "fresh_off",
        "fresh_on",
    )

    def __init__(self, dm: "Tier2Module", func: Function) -> None:
        super().__init__(dm, func)
        #: header label -> ordered tuple of the region's block labels
        self.candidates = _select_candidates(func)
        #: (header, profiled) -> compiled region function
        self.regions: dict[tuple[str, bool], Callable] = {}
        #: header -> probe entry count (persists across runs with the cache)
        self.counts: dict[str, int] = {}
        #: local tag names whose address is ever taken in this function
        self._local_addressed: frozenset[str] | None = None
        # frame layout precomputed once (push_frame_slots recomputes it per
        # activation from tag sizes; a call-heavy program pays that on every
        # call)
        offsets: list[int] = []
        off = 0
        for tag in self.tags:
            offsets.append(off)
            off = _align(off + max(self.sizes.get(tag.name, _ALIGN), 1))
        self.frame_offsets = offsets
        self.frame_size = off
        self.nparams = len(self.param_ids)
        #: the entry block heads a candidate region, so fresh activations can
        #: enter a specialized variant that exploits the zeroed register file
        self.entry_fresh = func.entry in self.candidates
        self.fresh_count = 0
        #: entry-region variants for fresh activations (by profiling mode);
        #: they take ``args`` instead of ``regs`` — every non-parameter
        #: register is known-zero at activation start, so the template
        #: chain-assigns zeros instead of loading the list
        self.fresh_off: Callable | None = None
        self.fresh_on: Callable | None = None

    def decode(self, label: str) -> Callable:
        fn = _compile_block(self, label)
        if label in self.candidates:
            fn = _make_probe(self, label, fn)
        self.blocks[label] = fn
        return fn

    def local_addressed(self) -> frozenset[str]:
        cached = self._local_addressed
        if cached is None:
            cached = frozenset(
                i.tag.name
                for i in self.func.instructions()
                if i.__class__ is LoadAddr and i.tag.kind is TagKind.LOCAL
            )
            self._local_addressed = cached
        return cached


class Tier2Module(DecodedModule):
    """A decode cache whose call executor routes callees through tier 2."""

    cache_attr = "_tier2"

    def __init__(self, module: Module, mem: MemoryImage) -> None:
        super().__init__(module, mem)
        #: global/string tag names whose address is ever taken, module-wide
        self._global_addressed: frozenset[str] | None = None

    def global_addressed(self) -> frozenset[str]:
        cached = self._global_addressed
        if cached is None:
            cached = frozenset(
                i.tag.name
                for func in self.module.functions.values()
                for i in func.instructions()
                if i.__class__ is LoadAddr and i.tag.kind is not TagKind.LOCAL
            )
            self._global_addressed = cached
        return cached


def _select_candidates(func: Function) -> dict[str, tuple[str, ...]]:
    """Candidate regions by header: the whole body (small functions) plus
    every natural loop that fits the cap.

    Members are ordered by descending loop depth (header first), so the
    hottest blocks sit at the top of the generated ``_pc`` dispatch chain.
    """
    candidates: dict[str, tuple[str, ...]] = {}
    order = {lbl: i for i, lbl in enumerate(func.blocks)}
    forest = find_loops(func)
    depth: dict[str, int] = {}
    for loop in forest.loops:
        for lbl in loop.blocks:
            depth[lbl] = max(depth.get(lbl, 0), loop.depth)

    def members(header: str, blocks) -> tuple[str, ...]:
        rest = sorted(
            (lbl for lbl in blocks if lbl != header),
            key=lambda lbl: (-depth.get(lbl, 0), order[lbl]),
        )
        return tuple([header] + rest)

    for loop in forest.loops:
        if len(loop.blocks) > REGION_CAP:
            continue
        candidates[loop.header] = members(loop.header, loop.blocks)
    if len(order) <= REGION_CAP:
        # the function-wide region subsumes any loop sharing its header
        candidates[func.entry] = members(func.entry, order)
    return candidates


# -- execution ---------------------------------------------------------------
def exec_function(
    m: Machine, df: Tier2Function, args: tuple
) -> int | float | None:
    """One activation under tier 2.

    Fresh activations of a function whose entry heads a candidate region
    dispatch straight into the *fresh* region variant — no ``regs`` list is
    even allocated on the fast path; the variant returns a 1-tuple boxed
    value or a ``(label, regs)`` continuation (regs materialized only on
    that cold exit).  Everything else runs the threaded dispatch loop:
    block fns, probes and regions all return the next label as a ``str``
    or the return value boxed in a 1-tuple.
    """
    m._call_depth += 1
    if m._call_depth > 2000:
        raise ResourceLimitError("interpreted call stack too deep")
    mem = m.mem
    saved_sp = mem.stack_ptr
    ptr = saved_sp + df.frame_size
    if ptr > STACK_LIMIT:
        raise InterpError("interpreted program overflowed its stack")
    frame = [saved_sp + o for o in df.frame_offsets]
    mem.stack_ptr = ptr
    cells = mem.cells
    c = m.counters
    label = df.entry
    visits = m.block_visits
    profiled = visits is not None
    try:
        fresh = df.fresh_on if profiled else df.fresh_off
        if fresh is None and df.entry_fresh:
            n = df.fresh_count + 1
            df.fresh_count = n
            if n >= HOT_THRESHOLD and len(args) == df.nparams:
                fresh = _compile_region(df, label, profiled, fresh=True)
                if profiled:
                    df.fresh_on = fresh
                else:
                    df.fresh_off = fresh
        if fresh is not None and len(args) == df.nparams:
            # a profiled fresh variant counts its own entry visit
            res = fresh(args, frame, cells, c, m)
            if len(res) == 1:
                return res[0]
            label, regs = res
        else:
            regs = [0] * df.nregs
            for i, value in zip(df.param_ids, args):
                regs[i] = value
        blocks = df.blocks
        if visits is None:
            while True:
                fn = blocks.get(label)
                if fn is None:
                    fn = df.decode(label)
                nxt = fn(regs, frame, cells, c, m)
                if nxt.__class__ is str:
                    label = nxt
                else:
                    return nxt[0]
        else:
            name = df.name
            while True:
                key = (name, label)
                visits[key] = visits.get(key, 0) + 1
                fn = blocks.get(label)
                if fn is None:
                    fn = df.decode(label)
                nxt = fn(regs, frame, cells, c, m)
                if nxt.__class__ is str:
                    label = nxt
                else:
                    return nxt[0]
    finally:
        mem.pop_frame(saved_sp)
        m._call_depth -= 1


def _make_probe(tf: Tier2Function, header: str, plain: Callable) -> Callable:
    """Header probe: count entries, compile past the threshold, then
    dispatch straight into the region (one variant per profiling mode)."""
    counts = tf.counts

    region_off: Callable | None = None
    region_on: Callable | None = None

    def _probe(regs, frame, cells, c, m):
        nonlocal region_off, region_on
        if m.block_visits is None:
            region = region_off
            if region is None:
                n = counts.get(header, 0) + 1
                counts[header] = n
                if n < HOT_THRESHOLD:
                    return plain(regs, frame, cells, c, m)
                region = region_off = _compile_region(tf, header, False)
                tf.regions[(header, False)] = region
            return region(regs, frame, cells, c, m)
        region = region_on
        if region is None:
            n = counts.get(header, 0) + 1
            counts[header] = n
            if n < HOT_THRESHOLD:
                return plain(regs, frame, cells, c, m)
            region = region_on = _compile_region(tf, header, True)
            tf.regions[(header, True)] = region
        return region(regs, frame, cells, c, m)

    return _probe


# -- region template compilation ---------------------------------------------
def _compile_region(
    tf: Tier2Function, header: str, profiled: bool, fresh: bool = False
) -> Callable:
    """Compile one region into a single specialized Python function.

    With ``fresh`` the region is specialized for activation entry: it takes
    the call's ``args`` tuple instead of a ``regs`` list, loads parameters
    from it, chain-assigns every other register to zero (the register file
    of a new activation is all zeros), and materializes a ``regs`` list
    only on the cold exits that need one (a budget-guard handoff to the
    reference stepper, a region escape).  Its return protocol is
    ``(value,)`` for a function return and ``(label, regs)`` to continue
    threaded dispatch.  Without ``fresh`` the region returns what a
    threaded block fn returns: the next label or ``(value,)``.

    Generated shape (two-block loop, one promoted slot)::

        def _r(regs, frame, cells, c, m):
            _g = cells.get
            r3 = regs[3]; r4 = regs[4]
            x0 = _g(frame[0], 0)
            _m = m._max_steps
            _lim = _m - c.total_ops
            _t = 0; _ld = 0; ...
            _pc = 0
            try:
                while True:
                    if _pc == 0:                 # header
                        _t += 2
                        if _t > _lim:
                            _t -= 2
                            ... spill ...
                            return _T0(m, regs, frame, cells, c)
                        r3 = 1 if r4 < x0 else 0
                        if r3 != 0:
                            _pc = 1
                            continue
                        ... spill ...
                        return 'exit_label'
                    elif _pc == 1: ...
            except BaseException:
                cells[frame[0]] = x0             # traps see flushed slots
                c.total_ops += _t; ...
                raise
    """
    func = tf.func
    dm = tf.dm
    labels = tf.candidates[header]
    region_blocks = [func.blocks[lbl] for lbl in labels]

    # -- superblock linearization ------------------------------------------
    # a member with exactly one in-region predecessor is emitted inline
    # after that predecessor (plain fall-through, no ``_pc`` dispatch on
    # the edge); only chain heads get an arm in the dispatch ladder.  For
    # a branch whose targets both qualify, the hotter one (earlier in the
    # depth-sorted member order) falls through.
    member_order = {lbl: i for i, lbl in enumerate(labels)}

    def _succs(lbl: str) -> tuple[str, ...]:
        instrs = func.blocks[lbl].instrs
        term = instrs[-1] if instrs else None
        cls = term.__class__
        if cls is Jump:
            return (term.target,)
        if cls is Branch:
            if term.if_true == term.if_false:
                return (term.if_true,)
            return (term.if_true, term.if_false)
        return ()

    pred_count: dict[str, int] = {lbl: 0 for lbl in labels}
    for lbl in labels:
        for s in _succs(lbl):
            if s in pred_count:
                pred_count[s] += 1
    fallthrough: dict[str, str] = {}
    inlined: set[str] = set()
    for lbl in labels:
        for s in sorted(
            _succs(lbl), key=lambda t: member_order.get(t, len(labels))
        ):
            if (
                s != header
                and s != lbl
                and pred_count.get(s) == 1
                and s not in inlined
            ):
                fallthrough[lbl] = s
                inlined.add(s)
                break
    arm_labels = [lbl for lbl in labels if lbl not in inlined]
    pc_of = {lbl: i for i, lbl in enumerate(arm_labels)}

    # -- promotion analysis ------------------------------------------------
    used_vregs: set[int] = set()
    scalar_local: set[str] = set()
    scalar_global: set[str] = set()
    has_call = False
    for block in region_blocks:
        for instr in block.instrs:
            for u in instr.uses():
                used_vregs.add(u.id)
            d = instr.dest
            if d is not None:
                used_vregs.add(d.id)
            cls = instr.__class__
            if cls is Call:
                # intrinsics cannot reference a module global without a
                # pointer (and promoted globals are never addressed), so
                # only real function calls demote global promotion;
                # ``clock`` reads counters, not memory
                callee = instr.callee
                if (
                    callee is None
                    or callee in dm.functions
                    or not is_intrinsic(callee)
                ):
                    has_call = True
            elif cls is ScalarLoad or cls is CLoad or cls is ScalarStore:
                tag = instr.tag
                if tag.kind is TagKind.LOCAL:
                    scalar_local.add(tag.name)
                else:
                    scalar_global.add(tag.name)

    local_addressed = tf.local_addressed()
    sizes = tf.sizes
    #: promoted frame slots: slot index -> local name
    promo_slot: dict[int, str] = {}
    for name in scalar_local:
        slot = tf.slots.get(name)
        if slot is None or name in local_addressed:
            continue
        if sizes.get(name, _ALIGN) > _ALIGN:
            continue
        promo_slot[slot] = f"x{slot}"

    #: promoted globals: baked address -> local name (call-free regions only)
    promo_global: dict[int, str] = {}
    if not has_call:
        global_addressed = dm.global_addressed()
        for name in sorted(scalar_global):
            if name in global_addressed:
                continue
            addr = dm.global_addr.get(name)
            if addr is None:
                continue  # strings stay in memory
            var = dm.module.globals.get(name)
            if var is None or var.size > _ALIGN:
                continue
            promo_global[addr] = f"g{len(promo_global)}"

    promo_global_by_name = {}
    for name in scalar_global:
        addr = dm.global_addr.get(name)
        if addr is not None and addr in promo_global:
            promo_global_by_name[name] = promo_global[addr]

    # non-promoted frame slots the region touches: hoist the (constant)
    # frame address into a local once, instead of indexing ``frame`` at
    # every access
    hoist_slot: dict[int, str] = {}
    for block in region_blocks:
        for instr in block.instrs:
            cls = instr.__class__
            if (
                cls is ScalarLoad
                or cls is CLoad
                or cls is ScalarStore
                or cls is LoadAddr
            ):
                tag = instr.tag
                if tag.kind is TagKind.LOCAL:
                    slot = tf.slots.get(tag.name)
                    if slot is not None and slot not in promo_slot:
                        hoist_slot[slot] = f"_h{slot}"

    def frame_ref(slot: int) -> str:
        return hoist_slot.get(slot) or f"frame[{slot}]"

    # -- source emission ---------------------------------------------------
    ns: dict[str, Any] = {
        "_binop": _binop,
        "_unop": _unop,
        "_div": c_div,
        "_mod": c_mod,
        "_call": dm.call_executor,
        "_trap_load": _trap_load,
        "_trap_store": _trap_store,
    }
    uid = [0]

    def bind(value, prefix: str) -> str:
        name = f"_{prefix}{uid[0]}"
        uid[0] += 1
        ns[name] = value
        return name

    op_names: dict[Opcode, str] = {}

    def opname(op: Opcode) -> str:
        name = op_names.get(op)
        if name is None:
            name = bind(op, "o")
            op_names[op] = name
        return name

    used_fields: set[str] = set()

    def flush_counters(out: list[str], ind: str) -> None:
        out.append(f"{ind}c.total_ops += _t")
        out.append(f"{ind}_t = 0")
        for fld in _COUNTER_FIELDS:
            if fld in used_fields:
                out.append(f"{ind}c.{fld} += {_DELTA[fld]}")
                out.append(f"{ind}{_DELTA[fld]} = 0")

    def spill_promoted(out: list[str], ind: str) -> None:
        for slot, name in sorted(promo_slot.items()):
            out.append(f"{ind}cells[frame[{slot}]] = {name}")
        for addr, name in sorted(promo_global.items()):
            out.append(f"{ind}cells[{addr}] = {name}")

    def spill_all(out: list[str], ind: str) -> None:
        if fresh:
            # cold exit: build the regs list the threaded tier expects —
            # zeros, then parameters the region never touched, then every
            # register the region tracks
            out.append(f"{ind}regs = [0] * {tf.nregs}")
            for i, pid in enumerate(tf.param_ids):
                if pid not in used_vregs:
                    out.append(f"{ind}regs[{pid}] = args[{i}]")
        for rid in sorted(used_vregs):
            out.append(f"{ind}regs[{rid}] = r{rid}")
        spill_promoted(out, ind)
        flush_counters(out, ind)

    # tag -> (kind, payload): "local" promoted local var, "frame" slot idx,
    # "addr" baked address, "gvar" promoted global var, "err" raiser src
    def classify_tag(tag):
        if tag.kind is TagKind.LOCAL:
            slot = tf.slots.get(tag.name)
            if slot is None:
                return (
                    "err",
                    bind(
                        _raiser(
                            InterpError,
                            f"local tag {tag.name} has no frame slot",
                        ),
                        "e",
                    )
                    + "()",
                )
            var = promo_slot.get(slot)
            if var is not None:
                return ("local", var)
            return ("frame", slot)
        gname = promo_global_by_name.get(tag.name)
        if gname is not None:
            return ("gvar", gname)
        addr = dm.global_addr.get(tag.name)
        if addr is None:
            addr = dm.string_addr.get(tag.name)
        if addr is None:
            return (
                "err",
                bind(_raiser(InterpError, f"tag {tag.name} has no address"), "e")
                + "()",
            )
        return ("addr", addr)

    def emit_wrap(out: list[str], ind: str, dst: str, expr: str) -> None:
        out.append(f"{ind}{dst} = {expr}")
        out.append(ind + _WRAP_CHECK.format(v=dst))
        out.append(ind + "    " + _WRAP_MASK.format(v=dst))

    def args_src(call: Call) -> str:
        parts = ", ".join(f"r{a.id}" for a in call.args)
        if len(call.args) == 1:
            return f"({parts},)"
        return f"({parts})"

    def emit_instr(instr, out: list[str], ind: str) -> None:
        cls = instr.__class__
        if cls is BinOp:
            op = instr.opcode
            dst = f"r{instr.dst.id}"
            lhs = f"r{instr.lhs.id}"
            rhs = f"r{instr.rhs.id}"
            sym = _WRAP_SRC.get(op)
            both_int = f"{lhs}.__class__ is int and {rhs}.__class__ is int"
            if sym is not None:
                emit_wrap(out, ind, dst, f"{lhs} {sym} {rhs}")
            elif op in _CMP_SRC:
                out.append(f"{ind}{dst} = 1 if {lhs} {_CMP_SRC[op]} {rhs} else 0")
            elif op is Opcode.DIV:
                # for non-negative operands C truncation equals floor
                # division and the quotient's magnitude never grows, so no
                # wrap is needed either
                out.append(f"{ind}if {both_int}:")
                out.append(f"{ind}    if {lhs} >= 0 and {rhs} > 0:")
                out.append(f"{ind}        {dst} = {lhs} // {rhs}")
                out.append(f"{ind}    else:")
                out.append(f"{ind}        {dst} = _div({lhs}, {rhs})")
                out.append(
                    f"{ind}elif {rhs}.__class__ is float and {rhs} != 0.0:"
                )
                out.append(f"{ind}    {dst} = {lhs} / {rhs}")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _binop({opname(op)}, {lhs}, {rhs})")
            elif op is Opcode.MOD:
                out.append(f"{ind}if {both_int}:")
                out.append(f"{ind}    if {lhs} >= 0 and {rhs} > 0:")
                out.append(f"{ind}        {dst} = {lhs} % {rhs}")
                out.append(f"{ind}    else:")
                out.append(f"{ind}        {dst} = _mod({lhs}, {rhs})")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _binop({opname(op)}, {lhs}, {rhs})")
            elif op in _BIT_SRC:
                # &, |, ^ of two in-range signed 64-bit ints sign-extend
                # consistently, so the result is already in range
                out.append(f"{ind}if {both_int}:")
                out.append(f"{ind}    {dst} = {lhs} {_BIT_SRC[op]} {rhs}")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _binop({opname(op)}, {lhs}, {rhs})")
            elif op is Opcode.SHL:
                out.append(f"{ind}if {both_int}:")
                out.append(f"{ind}    v = {lhs} << ({rhs} & 63)")
                out.append(ind + "    " + _WRAP_CHECK.format(v="v"))
                out.append(ind + "        " + _WRAP_MASK.format(v="v"))
                out.append(f"{ind}    {dst} = v")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _binop({opname(op)}, {lhs}, {rhs})")
            elif op is Opcode.SHR:
                out.append(f"{ind}if {both_int}:")
                out.append(f"{ind}    {dst} = {lhs} >> ({rhs} & 63)")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _binop({opname(op)}, {lhs}, {rhs})")
            else:
                out.append(f"{ind}{dst} = _binop({opname(op)}, {lhs}, {rhs})")
        elif cls is LoadI:
            value = instr.value
            if type(value) is int:
                out.append(f"{ind}r{instr.dst.id} = {value!r}")
            else:
                out.append(f"{ind}r{instr.dst.id} = {bind(value, 'k')}")
        elif cls is Mov:
            out.append(f"{ind}r{instr.dst.id} = r{instr.src.id}")
        elif cls is ScalarLoad or cls is CLoad:
            kind, payload = classify_tag(instr.tag)
            if kind == "local" or kind == "gvar":
                out.append(f"{ind}r{instr.dst.id} = {payload}")
            elif kind == "frame":
                out.append(f"{ind}r{instr.dst.id} = _g({frame_ref(payload)}, 0)")
            elif kind == "addr":
                out.append(f"{ind}r{instr.dst.id} = _g({payload}, 0)")
            else:
                out.append(f"{ind}{payload}")
        elif cls is ScalarStore:
            kind, payload = classify_tag(instr.tag)
            if kind == "local" or kind == "gvar":
                out.append(f"{ind}{payload} = r{instr.src.id}")
            elif kind == "frame":
                out.append(f"{ind}cells[{frame_ref(payload)}] = r{instr.src.id}")
            elif kind == "addr":
                out.append(f"{ind}cells[{payload}] = r{instr.src.id}")
            else:
                out.append(f"{ind}{payload}")
        elif cls is MemLoad:
            addr = f"r{instr.addr.id}"
            out.append(f"{ind}if {addr}.__class__ is not int:")
            out.append(f"{ind}    _trap_load({addr})")
            out.append(f"{ind}r{instr.dst.id} = _g({addr}, 0)")
        elif cls is MemStore:
            addr = f"r{instr.addr.id}"
            out.append(f"{ind}if {addr}.__class__ is not int:")
            out.append(f"{ind}    _trap_store({addr})")
            out.append(f"{ind}cells[{addr}] = r{instr.src.id}")
        elif cls is LoadAddr:
            kind, payload = classify_tag(instr.tag)
            if kind == "frame":
                expr = frame_ref(payload)
                if instr.offset:
                    expr = f"{expr} + {instr.offset}"
                out.append(f"{ind}r{instr.dst.id} = {expr}")
            elif kind == "addr":
                out.append(f"{ind}r{instr.dst.id} = {payload + instr.offset!r}")
            elif kind == "err":
                out.append(f"{ind}{payload}")
            else:  # pragma: no cover - promoted tags are never addressed
                raise InterpError(
                    f"tier2: LoadAddr on promoted tag {instr.tag.name}"
                )
        elif cls is UnOp:
            op = instr.opcode
            dst = f"r{instr.dst.id}"
            src = f"r{instr.src.id}"
            if op is Opcode.NEG:
                emit_wrap(out, ind, dst, f"-{src}")
            elif op is Opcode.LNOT:
                out.append(f"{ind}{dst} = 1 if {src} == 0 else 0")
            elif op is Opcode.I2F:
                out.append(f"{ind}{dst} = float({src})")
            elif op is Opcode.F2I:
                emit_wrap(out, ind, dst, f"int({src})")
            elif op is Opcode.NOT:
                # ~a of an in-range int is -a-1, still in range
                out.append(f"{ind}if {src}.__class__ is int:")
                out.append(f"{ind}    {dst} = ~{src}")
                out.append(f"{ind}else:")
                out.append(f"{ind}    {dst} = _unop({opname(op)}, {src})")
            else:
                out.append(f"{ind}{dst} = _unop({opname(op)}, {src})")
        elif cls is Call:
            # only total_ops must be exact at the call boundary (clock()
            # and the callee's budget guard read it); the other deltas
            # commute with the callee's own increments and are flushed at
            # every region boundary and in the except handler.  Intrinsics
            # other than clock() never read or consume the budget, so their
            # calls skip the flush and the _lim recompute entirely.
            name = instr.callee
            observes = True
            if name is None:
                call_expr = (
                    bind(
                        _raiser(
                            InterpError,
                            "indirect calls are not executable in this build",
                        ),
                        "e",
                    )
                    + "()"
                )
            else:
                target = dm.functions.get(name)
                if target is not None:
                    call_expr = f"_call(m, {bind(target, 'f')}, {args_src(instr)})"
                elif is_intrinsic(name):
                    observes = name == "clock"
                    call_expr = (
                        f"m._exec_intrinsic({name!r}, {args_src(instr)},"
                        f" {instr.site_id})"
                    )
                else:
                    call_expr = (
                        bind(
                            _raiser(
                                InterpError,
                                f"call to unknown function {name!r}",
                            ),
                            "e",
                        )
                        + "()"
                    )
            if observes:
                out.append(f"{ind}c.total_ops += _t")
                out.append(f"{ind}_t = 0")
            if instr.dst is not None:
                out.append(f"{ind}v = {call_expr}")
                out.append(f"{ind}r{instr.dst.id} = 0 if v is None else v")
            else:
                out.append(f"{ind}{call_expr}")
            if observes:
                out.append(f"{ind}_lim = _m - c.total_ops")
        elif cls is Nop:
            pass
        elif cls is Phi:
            out.append(
                f"{ind}"
                + bind(
                    _raiser(
                        InterpError,
                        "phi reached the interpreter; destruct SSA first",
                    ),
                    "e",
                )
                + "()"
            )
        else:  # pragma: no cover - defensive
            out.append(
                f"{ind}"
                + bind(_raiser(InterpError, f"unknown instruction {instr}"), "e")
                + "()"
            )

    # first pass: which counter fields does any region block touch?
    for block in region_blocks:
        mix = _segment_mix(block.instrs)
        used_fields.update(fld for fld in _COUNTER_FIELDS if mix[fld])

    name = func.name
    if fresh:
        lines = ["def _r(args, frame, cells, c, m):", "    _g = cells.get"]
        param_pos = {pid: i for i, pid in enumerate(tf.param_ids)}
        zeros: list[str] = []
        for rid in sorted(used_vregs):
            pos = param_pos.get(rid)
            if pos is not None:
                lines.append(f"    r{rid} = args[{pos}]")
            else:
                zeros.append(f"r{rid}")
        while zeros:
            lines.append("    " + " = ".join(zeros[:20]) + " = 0")
            del zeros[:20]
    else:
        lines = ["def _r(regs, frame, cells, c, m):", "    _g = cells.get"]
        for rid in sorted(used_vregs):
            lines.append(f"    r{rid} = regs[{rid}]")
    for slot, var in sorted(hoist_slot.items()):
        lines.append(f"    {var} = frame[{slot}]")
    for slot, var in sorted(promo_slot.items()):
        lines.append(f"    {var} = _g(frame[{slot}], 0)")
    for addr, var in sorted(promo_global.items()):
        lines.append(f"    {var} = _g({addr}, 0)")
    lines.append("    _m = m._max_steps")
    lines.append("    _lim = _m - c.total_ops")
    lines.append("    _t = 0")
    for fld in _COUNTER_FIELDS:
        if fld in used_fields:
            lines.append(f"    {_DELTA[fld]} = 0")
    if profiled:
        lines.append("    _vb = m.block_visits")
        if not fresh:
            lines.append("    _skip = True")
    lines.append("    _pc = 0")
    lines.append("    try:")
    lines.append("        while True:")

    def emit_exit(label_expr: str, out: list[str], ind: str) -> None:
        """Leave the region to threaded dispatch at ``label_expr``."""
        spill_all(out, ind)
        if fresh:
            out.append(f"{ind}return ({label_expr}, regs)")
        else:
            out.append(f"{ind}return {label_expr}")

    def emit_jump(target: str, out: list[str], ind: str) -> None:
        pc = pc_of.get(target)
        if pc is not None:
            out.append(f"{ind}_pc = {pc}")
            out.append(f"{ind}continue")
        else:
            emit_exit(repr(target), out, ind)

    def emit_block_code(lbl: str) -> None:
        """Emit one block's body (and its fall-through chain) in place."""
        block = func.blocks[lbl]
        ind = "                "  # inside while inside try
        if profiled:
            key_name = bind((name, lbl), "K")
            if lbl == header and not fresh:
                # the dispatcher already counted the entry visit
                lines.append(f"{ind}if _skip:")
                lines.append(f"{ind}    _skip = False")
                lines.append(f"{ind}else:")
                lines.append(
                    f"{ind}    _vb[{key_name}] ="
                    f" _vb.get({key_name}, 0) + 1"
                )
            else:
                lines.append(
                    f"{ind}_vb[{key_name}] = _vb.get({key_name}, 0) + 1"
                )
        # segment split: a Call ends its segment (exact clock()/budget)
        segments: list[tuple[int, list]] = []
        seg: list = []
        seg_start = 0
        for idx, instr in enumerate(block.instrs):
            seg.append(instr)
            if instr.__class__ is Call:
                segments.append((seg_start, seg))
                seg = []
                seg_start = idx + 1
        if seg or not segments:
            segments.append((seg_start, seg))
        for seg_start, seg in segments:
            mix = _segment_mix(seg)
            ops = mix["total_ops"]
            if ops:
                lines.append(f"{ind}_t += {ops}")
                lines.append(f"{ind}if _t > _lim:")
                guard = [f"{ind}    _t -= {ops}"]
                spill_all(guard, ind + "    ")
                # finish the block on the reference engine from the
                # segment's first instruction
                tail = bind(_make_tail(tf, lbl, seg_start), "T")
                call = f"{tail}(m, regs, frame, cells, c)"
                if fresh:
                    guard.append(f"{ind}    _x = {call}")
                    guard.append(f"{ind}    if _x.__class__ is str:")
                    guard.append(f"{ind}        return (_x, regs)")
                    guard.append(f"{ind}    return _x")
                else:
                    guard.append(f"{ind}    return {call}")
                lines.extend(guard)
            for fld in _COUNTER_FIELDS:
                if mix[fld]:
                    lines.append(f"{ind}{_DELTA[fld]} += {mix[fld]}")
            for instr in seg:
                cls = instr.__class__
                if cls is Jump:
                    if fallthrough.get(lbl) == instr.target:
                        emit_block_code(instr.target)
                    else:
                        emit_jump(instr.target, lines, ind)
                elif cls is Branch:
                    cond = f"r{instr.cond.id} != 0"
                    ft = fallthrough.get(lbl)
                    if ft == instr.if_true or ft == instr.if_false:
                        if instr.if_true == instr.if_false:
                            emit_block_code(ft)
                            continue
                        if ft == instr.if_false:
                            other, test = instr.if_true, f"if {cond}:"
                        else:
                            other, test = instr.if_false, f"if not ({cond}):"
                        o_pc = pc_of.get(other)
                        lines.append(f"{ind}{test}")
                        if o_pc is not None:
                            lines.append(f"{ind}    _pc = {o_pc}")
                            lines.append(f"{ind}    continue")
                        else:
                            emit_exit(repr(other), lines, ind + "    ")
                        emit_block_code(ft)
                        continue
                    t_pc = pc_of.get(instr.if_true)
                    f_pc = pc_of.get(instr.if_false)
                    if t_pc is not None and f_pc is not None:
                        lines.append(f"{ind}if {cond}:")
                        lines.append(f"{ind}    _pc = {t_pc}")
                        lines.append(f"{ind}else:")
                        lines.append(f"{ind}    _pc = {f_pc}")
                        lines.append(f"{ind}continue")
                    elif t_pc is not None:
                        lines.append(f"{ind}if {cond}:")
                        lines.append(f"{ind}    _pc = {t_pc}")
                        lines.append(f"{ind}    continue")
                        emit_exit(repr(instr.if_false), lines, ind)
                    elif f_pc is not None:
                        lines.append(f"{ind}if not ({cond}):")
                        lines.append(f"{ind}    _pc = {f_pc}")
                        lines.append(f"{ind}    continue")
                        emit_exit(repr(instr.if_true), lines, ind)
                    else:
                        emit_exit(
                            f"({instr.if_true!r} if {cond}"
                            f" else {instr.if_false!r})",
                            lines,
                            ind,
                        )
                elif cls is Ret:
                    # frame slots die with the activation, but their final
                    # cell values must match the reference engine's (stack
                    # addresses are reused; see MemoryImage.pop_frame)
                    spill_promoted(lines, ind)
                    flush_counters(lines, ind)
                    if instr.value is not None:
                        lines.append(f"{ind}return (r{instr.value.id},)")
                    else:
                        lines.append(f"{ind}return (None,)")
                else:
                    emit_instr(instr, lines, ind)
        term = block.instrs[-1] if block.instrs else None
        if term is None or not term.is_terminator():
            lines.append(
                f"{ind}"
                + bind(
                    _raiser(
                        InterpError,
                        f"block {lbl} in {name} fell through without"
                        " terminator",
                    ),
                    "e",
                )
                + "()"
            )

    for bi, lbl in enumerate(arm_labels):
        kw = "if" if bi == 0 else "elif"
        lines.append(f"            {kw} _pc == {bi}:")
        emit_block_code(lbl)
    lines.append("    except BaseException:")
    spill_promoted(lines, "        ")
    flush_counters(lines, "        ")
    lines.append("        raise")

    src = "\n".join(lines)
    code = compile(
        src,
        f"<tier2 {name}:{header}"
        f"{'+fresh' if fresh else ''}{'+profile' if profiled else ''}>",
        "exec",
    )
    exec(code, ns)
    return ns["_r"]


# executor/class wiring happens after the definitions the attributes name
Tier2Module.function_cls = Tier2Function
Tier2Module.call_executor = staticmethod(exec_function)
