"""Block-threaded execution engine: decode once, execute many.

The reference engine in :mod:`repro.interp.machine` pays per executed
instruction for a ``type()`` dispatch chain, a dict lookup per scalar tag
address, and a ``max_steps`` comparison per op.  This engine applies the
paper's own discipline — decide once, execute many — to the interpreter
itself: on first entry to each ``(function, block)`` the instruction list
is compiled into one fused Python function with every invariant decision
resolved at decode time:

* global/string tag addresses are baked in as integer literals (the
  :class:`~repro.interp.memory.MemoryImage` layout is deterministic per
  module);
* local tags become frame-slot indices into the list returned by
  ``MemoryImage.push_frame_slots``;
* register ids, branch targets, immediates, and callees (user function,
  intrinsic, or unknown) are captured as plain ints/objects;
* compare opcodes specialize to ``1 if a < b else 0`` — no ``wrap_int``
  call — and add/sub/mul/neg inline the two's-complement wrap as a range
  check that only masks on actual overflow.

Counter updates are *batched*: each block is split into segments at call
boundaries (a ``Call`` always ends its segment; the terminator ends the
last one), and each segment folds its static counter mix into
:class:`~repro.interp.counters.Counters` on entry.  Because a block
executes all of its instructions once entered, the folded totals are
bit-identical to per-instruction counting, and because calls end
segments, ``clock()`` (which reads ``total_ops``) sees exactly the
per-instruction value.

``max_steps`` stays exact through a peak argument: within a segment the
reference engine's per-instruction check value never exceeds
``entry_total + net_segment_ops`` (the terminator/call is always last and
always counted; a ``nop``'s +1/-1 transient cannot exceed that), and that
peak is reached at the segment's final instruction.  So the batched guard
``entry_total + net > max_steps`` fires iff some per-instruction check
would have fired.  When it fires, the segment is *not* folded; instead
the reference engine's block stepper,
:meth:`~repro.interp.machine.Machine._exec_block`, runs the block from
the segment's first instruction, so trap-vs-limit ordering, counter
state at the raise, and the error message are the reference engine's
own.  The tier-2 engine's guards hand over the same way: per-instruction
semantics live in one place.

The decoded program lives on the module (``module._decoded``) so repeat
runs skip decoding; it is validated against an identity signature of the
module's instruction objects on every run and rebuilt on mismatch
(optimization passes replace instruction objects, which the signature
catches).  Known limitation: mutating a *field* of an existing
instruction in place between runs of the same module object is invisible
to the signature — call :func:`invalidate_decoded` (or use
``MachineOptions(engine="simple")``) in that case.  ``Module`` drops the
cache when pickled or deep-copied.

Counter values are guaranteed bit-identical to the reference engine only
for runs that complete (normally, via ``exit()``, or by ``max_steps``
exhaustion); after a mid-block trap the batched counters may already
include the trapping segment's full mix.  No caller observes counters on
that path — ``Machine.run`` propagates the trap without building a
``RunResult``.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import InterpError, InterpTrap, ResourceLimitError
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
from .machine import Machine, _binop, _unop
from .memory import MemoryImage

#: python comparison source for the wrap-free compare fast path
_CMP_SRC = {
    Opcode.CMP_LT: "<",
    Opcode.CMP_LE: "<=",
    Opcode.CMP_GT: ">",
    Opcode.CMP_GE: ">=",
    Opcode.CMP_EQ: "==",
    Opcode.CMP_NE: "!=",
}

#: ops whose int result wraps; inlined with a range check (mask only on
#: actual overflow, which is rare)
_WRAP_SRC = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}

_COUNTER_FIELDS = (
    "loads",
    "stores",
    "scalar_loads",
    "scalar_stores",
    "general_loads",
    "general_stores",
    "copies",
    "calls",
    "branches",
)

#: the counter fields (beyond ``total_ops``) each instruction class adds
#: one to — the reference engine's per-instruction increments
_CLASS_FIELDS = {
    Mov: ("copies",),
    ScalarLoad: ("loads", "scalar_loads"),
    CLoad: ("loads", "scalar_loads"),
    ScalarStore: ("stores", "scalar_stores"),
    MemLoad: ("loads", "general_loads"),
    MemStore: ("stores", "general_stores"),
    Branch: ("branches",),
    Call: ("calls",),
}


def _segment_mix(instrs) -> dict[str, int]:
    """The static counter mix of straight-line ``instrs``: ``total_ops``
    (every instruction but ``Nop``) and each :data:`_COUNTER_FIELDS`."""
    mix = dict.fromkeys(("total_ops",) + _COUNTER_FIELDS, 0)
    for instr in instrs:
        cls = instr.__class__
        if cls is not Nop:
            mix["total_ops"] += 1
        for fld in _CLASS_FIELDS.get(cls, ()):
            mix[fld] += 1
    return mix


# -- decode cache ------------------------------------------------------------
def _module_signature(module: Module) -> tuple:
    """Identity snapshot of the module's executable structure.

    Passes rewrite programs by replacing instruction/function objects, so
    comparing object identities (plus classes, to survive id reuse after
    gc) detects stale decodings.  In-place *field* mutation of a kept
    instruction is the documented blind spot — see the module docstring.
    """
    parts = []
    for name, func in module.functions.items():
        blocks = tuple(
            (label, tuple((id(i), i.__class__) for i in block.instrs))
            for label, block in func.blocks.items()
        )
        parts.append(
            (name, id(func), func.entry, tuple(map(id, func.local_tags)), blocks)
        )
    return tuple(parts)


class DecodedFunction:
    """One function's decode state: frame layout plus lazily decoded blocks."""

    __slots__ = (
        "dm",
        "func",
        "name",
        "entry",
        "nregs",
        "param_ids",
        "tags",
        "sizes",
        "slots",
        "blocks",
    )

    def __init__(self, dm: "DecodedModule", func: Function) -> None:
        self.dm = dm
        self.func = func
        self.name = func.name
        self.entry = func.entry
        self.nregs = func.max_vreg_id() + 1
        self.param_ids = tuple(p.id for p in func.params)
        self.tags = func.local_tags
        self.sizes = func.local_tag_sizes
        #: local tag name -> index into the frame-slot address list
        self.slots = {tag.name: i for i, tag in enumerate(func.local_tags)}
        #: label -> compiled block function, filled on first entry
        self.blocks: dict[str, Callable] = {}

    def decode(self, label: str) -> Callable:
        fn = _compile_block(self, label)
        self.blocks[label] = fn
        return fn


class DecodedModule:
    """The decoded program: per-function state plus the baked address maps.

    Subclasses (the tier-2 cache) override :attr:`function_cls`,
    :attr:`call_executor` and :attr:`cache_attr`.  The executor is baked
    into every compiled block's ``_call`` binding, so callees reached
    from threaded-decoded blocks enter the same tier as their caller.
    The first two are assigned after the definitions they name.
    """

    function_cls: type
    call_executor: Callable
    #: the ``Module`` attribute the cache lives in (``Module`` drops it
    #: on pickle/deepcopy)
    cache_attr = "_decoded"

    def __init__(self, module: Module, mem: MemoryImage) -> None:
        self.module = module
        # the layout is a pure function of the module's globals/strings,
        # so addresses baked from one MemoryImage hold for every machine
        # running this module; validated against each run's image anyway
        self.global_addr = dict(mem.global_addr)
        self.string_addr = dict(mem.string_addr)
        self.signature = _module_signature(module)
        function_cls = type(self).function_cls
        self.functions = {
            name: function_cls(self, func)
            for name, func in module.functions.items()
        }

    def validate(self, mem: MemoryImage) -> bool:
        return (
            self.global_addr == mem.global_addr
            and self.string_addr == mem.string_addr
            and self.signature == _module_signature(self.module)
        )


def get_decoded(
    module: Module, mem: MemoryImage, cls: type[DecodedModule] = DecodedModule
) -> DecodedModule:
    """The module's ``cls`` cache (threaded by default), rebuilt if the
    program changed."""
    dm = getattr(module, cls.cache_attr, None)
    if dm is not None and dm.validate(mem):
        return dm
    dm = cls(module, mem)
    setattr(module, cls.cache_attr, dm)
    return dm


def invalidate_decoded(module: Module) -> None:
    """Drop the decode and tier-2 caches (needed only after in-place
    instruction field mutation, which the staleness signature cannot
    see)."""
    module.__dict__.pop("_decoded", None)
    module.__dict__.pop("_tier2", None)


# -- execution ---------------------------------------------------------------
def exec_entry(
    machine: Machine, func: Function, cls: type[DecodedModule] = DecodedModule
) -> int | float | None:
    """Run ``func`` on ``machine`` under the engine whose cache is ``cls``
    (the block-threaded engine by default, :class:`~repro.interp.tier2.
    Tier2Module` for tier 2).

    When a trace is active the decode and run phases get their own spans
    (``interp.decode`` notes whether the decode cache hit); when tracing
    is off this takes the original untraced path — the engine hot loop
    itself is never instrumented.
    """
    from ..trace import current_trace

    exec_function = cls.call_executor
    trace = current_trace()
    if trace is None:
        dm = get_decoded(machine.module, machine.mem, cls)
        return exec_function(machine, dm.functions[func.name], ())
    cached = getattr(machine.module, cls.cache_attr, None)
    with trace.span("interp.decode") as decode_extra:
        dm = get_decoded(machine.module, machine.mem, cls)
        decode_extra["cached"] = dm is cached
    with trace.span("interp.run", function=func.name) as run_extra:
        result = exec_function(machine, dm.functions[func.name], ())
        run_extra["total_ops"] = machine.counters.total_ops
    return result


def exec_function(
    m: Machine, df: DecodedFunction, args: tuple
) -> int | float | None:
    """One activation: push a frame, then thread through decoded blocks.

    Mirrors ``Machine._exec_function`` exactly (depth check before the
    frame push, frame/depth unwound in ``finally``, extra args dropped,
    missing args left zero).  Block functions return the next label as a
    ``str`` or the return value boxed in a 1-tuple.
    """
    m._call_depth += 1
    if m._call_depth > 2000:
        raise ResourceLimitError("interpreted call stack too deep")
    mem = m.mem
    saved_sp = mem.stack_ptr
    frame = mem.push_frame_slots(df.tags, df.sizes)
    regs: list[int | float] = [0] * df.nregs
    for i, value in zip(df.param_ids, args):
        regs[i] = value
    cells = mem.cells
    c = m.counters
    blocks = df.blocks
    label = df.entry
    visits = m.block_visits
    try:
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
            # the visit is counted at block entry, before any of the
            # block's checks can raise — same as the reference engine
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


# -- guard-trip handoff to the reference stepper -----------------------------
def _make_tail(df: DecodedFunction, label: str, start: int) -> Callable:
    """The guard-trip fallback for the segment of ``label`` starting at
    instruction ``start``: the reference engine's block stepper, entered
    mid-block on this activation's registers and frame."""
    func = df.func
    tags = df.tags

    def _tail(m, regs, frame, cells, c):
        frame_addrs = {tag.name: addr for tag, addr in zip(tags, frame)}
        return m._exec_block(func, label, start, regs, frame_addrs)

    return _tail


# -- decode-time helpers -----------------------------------------------------
def _raiser(exc: type, message: str) -> Callable:
    """A callable raising ``exc(message)``; used where the reference
    engine raises at execution time, so decode never raises early."""

    def _raise(*_args):
        raise exc(message)

    return _raise


def _trap_load(addr) -> None:
    raise InterpTrap(f"load through non-integer address {addr!r}")


def _trap_store(addr) -> None:
    raise InterpTrap(f"store through non-integer address {addr!r}")


# -- block compilation -------------------------------------------------------
def _compile_block(df: DecodedFunction, label: str) -> Callable:
    """Compile one basic block into a fused Python function.

    Generated shape (segments split after every ``Call``)::

        def _b(regs, frame, cells, c, m):
            _g = cells.get
            t = c.total_ops + <net ops>          # batched guard + fold
            if t > m._max_steps:
                return _t0(m, regs, frame, cells, c)   # reference stepper
            c.total_ops = t
            c.loads += <n> ...                   # nonzero mixes only
            regs[3] = _g(268435456, 0)           # sload, address baked
            v = regs[3] + regs[1]                # add, wrap on overflow
            if v.__class__ is int and not <in range>: v = <mask>
            regs[4] = v
            return 'L2' if regs[4] != 0 else 'L3'
    """
    func = df.func
    block = func.blocks[label]  # KeyError here matches the reference engine
    dm = df.dm
    slots = df.slots

    ns: dict[str, Any] = {
        "_binop": _binop,
        "_unop": _unop,
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

    def tag_addr(tag) -> str:
        if tag.kind is TagKind.LOCAL:
            slot = slots.get(tag.name)
            if slot is None:
                return (
                    bind(
                        _raiser(
                            InterpError,
                            f"local tag {tag.name} has no frame slot",
                        ),
                        "e",
                    )
                    + "()"
                )
            return f"frame[{slot}]"
        addr = dm.global_addr.get(tag.name)
        if addr is None:
            addr = dm.string_addr.get(tag.name)
        if addr is None:
            return (
                bind(_raiser(InterpError, f"tag {tag.name} has no address"), "e")
                + "()"
            )
        return repr(addr)

    def static_addr(tag) -> int | None:
        if tag.kind is TagKind.LOCAL:
            return None
        addr = dm.global_addr.get(tag.name)
        if addr is None:
            addr = dm.string_addr.get(tag.name)
        return addr

    def emit_wrap(out: list[str], dst: int, expr: str) -> None:
        out.append(f"    v = {expr}")
        out.append(
            "    if v.__class__ is int and not"
            " -9223372036854775808 <= v <= 9223372036854775807:"
        )
        out.append(
            "        v = ((v + 9223372036854775808)"
            " & 18446744073709551615) - 9223372036854775808"
        )
        out.append(f"    regs[{dst}] = v")

    def args_src(call: Call) -> str:
        parts = ", ".join(f"regs[{a.id}]" for a in call.args)
        if len(call.args) == 1:
            return f"({parts},)"
        return f"({parts})"

    def emit_instr(instr, out: list[str]) -> None:
        cls = instr.__class__
        if cls is BinOp:
            op = instr.opcode
            sym = _WRAP_SRC.get(op)
            if sym is not None:
                emit_wrap(
                    out,
                    instr.dst.id,
                    f"regs[{instr.lhs.id}] {sym} regs[{instr.rhs.id}]",
                )
            elif op in _CMP_SRC:
                out.append(
                    f"    regs[{instr.dst.id}] = 1 if"
                    f" regs[{instr.lhs.id}] {_CMP_SRC[op]} regs[{instr.rhs.id}]"
                    " else 0"
                )
            else:
                out.append(
                    f"    regs[{instr.dst.id}] = _binop({opname(op)},"
                    f" regs[{instr.lhs.id}], regs[{instr.rhs.id}])"
                )
        elif cls is LoadI:
            value = instr.value
            if type(value) is int:
                out.append(f"    regs[{instr.dst.id}] = {value!r}")
            else:
                # floats (incl. inf/nan) bind the exact object the
                # reference engine would store
                out.append(f"    regs[{instr.dst.id}] = {bind(value, 'k')}")
        elif cls is Mov:
            out.append(f"    regs[{instr.dst.id}] = regs[{instr.src.id}]")
        elif cls is ScalarLoad or cls is CLoad:
            out.append(f"    regs[{instr.dst.id}] = _g({tag_addr(instr.tag)}, 0)")
        elif cls is ScalarStore:
            out.append(f"    cells[{tag_addr(instr.tag)}] = regs[{instr.src.id}]")
        elif cls is MemLoad:
            out.append(f"    a = regs[{instr.addr.id}]")
            out.append("    if a.__class__ is not int:")
            out.append("        _trap_load(a)")
            out.append(f"    regs[{instr.dst.id}] = _g(a, 0)")
        elif cls is MemStore:
            out.append(f"    a = regs[{instr.addr.id}]")
            out.append("    if a.__class__ is not int:")
            out.append("        _trap_store(a)")
            out.append(f"    cells[a] = regs[{instr.src.id}]")
        elif cls is LoadAddr:
            addr = static_addr(instr.tag)
            if addr is not None:
                out.append(f"    regs[{instr.dst.id}] = {addr + instr.offset!r}")
            else:
                expr = tag_addr(instr.tag)
                if instr.offset:
                    expr = f"{expr} + {instr.offset}"
                out.append(f"    regs[{instr.dst.id}] = {expr}")
        elif cls is UnOp:
            op = instr.opcode
            if op is Opcode.NEG:
                emit_wrap(out, instr.dst.id, f"-regs[{instr.src.id}]")
            elif op is Opcode.LNOT:
                out.append(
                    f"    regs[{instr.dst.id}] = 1 if"
                    f" regs[{instr.src.id}] == 0 else 0"
                )
            elif op is Opcode.I2F:
                out.append(
                    f"    regs[{instr.dst.id}] = float(regs[{instr.src.id}])"
                )
            else:
                out.append(
                    f"    regs[{instr.dst.id}] = _unop({opname(op)},"
                    f" regs[{instr.src.id}])"
                )
        elif cls is Jump:
            out.append(f"    return {instr.target!r}")
        elif cls is Branch:
            out.append(
                f"    return {instr.if_true!r} if regs[{instr.cond.id}] != 0"
                f" else {instr.if_false!r}"
            )
        elif cls is Ret:
            if instr.value is not None:
                out.append(f"    return (regs[{instr.value.id}],)")
            else:
                out.append("    return (None,)")
        elif cls is Call:
            name = instr.callee
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
                    call_expr = (
                        f"_call(m, {bind(target, 'f')}, {args_src(instr)})"
                    )
                elif is_intrinsic(name):
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
            if instr.dst is not None:
                out.append(f"    v = {call_expr}")
                out.append(f"    regs[{instr.dst.id}] = 0 if v is None else v")
            else:
                out.append(f"    {call_expr}")
        elif cls is Nop:
            pass  # structural: net-zero ops, no effect
        elif cls is Phi:
            out.append(
                "    "
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
                "    "
                + bind(_raiser(InterpError, f"unknown instruction {instr}"), "e")
                + "()"
            )

    lines = ["def _b(regs, frame, cells, c, m):", "    _g = cells.get"]
    seg_body: list[str] = []
    seg_start = 0

    def flush(next_start: int) -> None:
        nonlocal seg_start
        mix = _segment_mix(block.instrs[seg_start:next_start])
        if seg_body or mix["total_ops"]:
            tail_name = bind(_make_tail(df, label, seg_start), "t")
            lines.append(f"    t = c.total_ops + {mix['total_ops']}")
            lines.append("    if t > m._max_steps:")
            lines.append(f"        return {tail_name}(m, regs, frame, cells, c)")
            lines.append("    c.total_ops = t")
            for fld in _COUNTER_FIELDS:
                if mix[fld]:
                    lines.append(f"    c.{fld} += {mix[fld]}")
            lines.extend(seg_body)
        seg_body.clear()
        seg_start = next_start

    for idx, instr in enumerate(block.instrs):
        emit_instr(instr, seg_body)
        if instr.__class__ is Call:
            # a call ends its segment so the callee (clock() especially)
            # observes exactly the per-instruction total_ops
            flush(idx + 1)
    flush(len(block.instrs))

    term = block.instrs[-1] if block.instrs else None
    if term is None or not term.is_terminator():
        lines.append(
            "    "
            + bind(
                _raiser(
                    InterpError,
                    f"block {label} in {func.name} fell through without"
                    " terminator",
                ),
                "e",
            )
            + "()"
        )

    src = "\n".join(lines)
    code = compile(src, f"<decoded {func.name}:{label}>", "exec")
    exec(code, ns)
    return ns["_b"]


DecodedModule.function_cls = DecodedFunction
DecodedModule.call_executor = staticmethod(exec_function)
