"""Instruction classes for the tagged IL.

Each instruction is a small mutable object.  Passes rewrite instructions in
place (e.g. :meth:`Instr.replace_uses`) or splice new instruction lists into
basic blocks.  The API every pass relies on:

* :attr:`Instr.opcode` — the :class:`~repro.ir.opcodes.Opcode`.
* :meth:`Instr.uses` — registers read by the instruction.
* :attr:`Instr.dest` — the register written, or ``None``.
* :meth:`Instr.tag_set` — the memory locations possibly referenced
  (empty for non-memory instructions; calls expose MOD/REF separately).

Virtual registers (:class:`VReg`) are identified by integer id within a
function and carry an optional name hint used only for printing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .opcodes import BINARY_OPS, COMPARISON_OPS, UNARY_OPS, Opcode
from .tags import Tag, TagSet


@dataclass(frozen=True)
class VReg:
    """A virtual register.

    Identity is the integer ``id`` alone — two ``VReg`` objects with the
    same id are the same register regardless of ``hint``, which is only a
    printable suggestion (e.g. the source variable the register came
    from).  Passes that rewrite registers (coalescing, SSA renaming) rely
    on this.
    """

    id: int
    hint: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"%{self.hint}{self.id}" if self.hint else f"%r{self.id}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return str(self)


class Instr:
    """Base class for all IL instructions."""

    __slots__ = ()

    opcode: Opcode

    # -- generic pass API --------------------------------------------------
    def uses(self) -> tuple[VReg, ...]:
        """Registers read by this instruction."""
        return ()

    @property
    def dest(self) -> VReg | None:
        """The register written, or ``None``."""
        return None

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        """Rewrite every used register ``r`` to ``mapping.get(r, r)``."""

    def tag_set(self) -> TagSet:
        """Memory locations this instruction may reference directly.

        Calls return the union of their MOD and REF summaries.
        """
        return TagSet.empty()

    def is_terminator(self) -> bool:
        return False

    def copy(self) -> "Instr":
        """A shallow structural copy (tag sets are immutable and shared)."""
        raise NotImplementedError

    # -- printing -----------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self}>"


def _subst(mapping: Mapping[VReg, VReg], reg: VReg) -> VReg:
    return mapping.get(reg, reg)


class BinOp(Instr):
    """``dst = op lhs, rhs`` for every binary arithmetic/comparison op."""

    __slots__ = ("opcode", "dst", "lhs", "rhs")

    def __init__(self, opcode: Opcode, dst: VReg, lhs: VReg, rhs: VReg) -> None:
        if opcode not in BINARY_OPS:
            raise ValueError(f"{opcode} is not a binary opcode")
        self.opcode = opcode
        self.dst = dst
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> tuple[VReg, ...]:
        return (self.lhs, self.rhs)

    @property
    def dest(self) -> VReg:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.lhs = _subst(mapping, self.lhs)
        self.rhs = _subst(mapping, self.rhs)

    def is_comparison(self) -> bool:
        return self.opcode in COMPARISON_OPS

    def copy(self) -> "BinOp":
        return BinOp(self.opcode, self.dst, self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"{self.dst} = {self.opcode} {self.lhs}, {self.rhs}"


class UnOp(Instr):
    """``dst = op src`` for neg/not/lnot/i2f/f2i."""

    __slots__ = ("opcode", "dst", "src")

    def __init__(self, opcode: Opcode, dst: VReg, src: VReg) -> None:
        if opcode not in UNARY_OPS:
            raise ValueError(f"{opcode} is not a unary opcode")
        self.opcode = opcode
        self.dst = dst
        self.src = src

    def uses(self) -> tuple[VReg, ...]:
        return (self.src,)

    @property
    def dest(self) -> VReg:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.src = _subst(mapping, self.src)

    def copy(self) -> "UnOp":
        return UnOp(self.opcode, self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.dst} = {self.opcode} {self.src}"


class LoadI(Instr):
    """``dst = loadi value`` — an immediate (the paper's iLoad)."""

    __slots__ = ("dst", "value")
    opcode = Opcode.LOADI

    def __init__(self, dst: VReg, value: int | float) -> None:
        self.dst = dst
        self.value = value

    @property
    def dest(self) -> VReg:
        return self.dst

    def copy(self) -> "LoadI":
        return LoadI(self.dst, self.value)

    def __str__(self) -> str:
        return f"{self.dst} = loadi {self.value!r}"


class Mov(Instr):
    """``dst = mov src`` — a register copy (the paper's CP).

    Promotion rewrites memory operations into copies; the register
    allocator's coalescing phase removes most of them.
    """

    __slots__ = ("dst", "src")
    opcode = Opcode.MOV

    def __init__(self, dst: VReg, src: VReg) -> None:
        self.dst = dst
        self.src = src

    def uses(self) -> tuple[VReg, ...]:
        return (self.src,)

    @property
    def dest(self) -> VReg:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.src = _subst(mapping, self.src)

    def copy(self) -> "Mov":
        return Mov(self.dst, self.src)

    def __str__(self) -> str:
        return f"{self.dst} = mov {self.src}"


class LoadAddr(Instr):
    """``dst = la tag + offset`` — the run-time address of a tagged location.

    Taking an address does not by itself reference memory, so
    :meth:`tag_set` is empty; the tag is exposed via :attr:`tag` for the
    points-to analyzer, which uses it as an address-of constraint.
    """

    __slots__ = ("dst", "tag", "offset")
    opcode = Opcode.LA

    def __init__(self, dst: VReg, tag: Tag, offset: int = 0) -> None:
        self.dst = dst
        self.tag = tag
        self.offset = offset

    @property
    def dest(self) -> VReg:
        return self.dst

    def copy(self) -> "LoadAddr":
        return LoadAddr(self.dst, self.tag, self.offset)

    def __str__(self) -> str:
        if self.offset:
            return f"{self.dst} = la {self.tag} + {self.offset}"
        return f"{self.dst} = la {self.tag}"


class CLoad(Instr):
    """``dst = cload [tag]`` — load of an invariant-but-unknown value."""

    __slots__ = ("dst", "tag")
    opcode = Opcode.CLOAD

    def __init__(self, dst: VReg, tag: Tag) -> None:
        self.dst = dst
        self.tag = tag

    @property
    def dest(self) -> VReg:
        return self.dst

    def tag_set(self) -> TagSet:
        return TagSet.of(self.tag)

    def copy(self) -> "CLoad":
        return CLoad(self.dst, self.tag)

    def __str__(self) -> str:
        return f"{self.dst} = cload [{self.tag}]"


class ScalarLoad(Instr):
    """``dst = sload [tag]`` — explicit load of a named scalar."""

    __slots__ = ("dst", "tag")
    opcode = Opcode.SLOAD

    def __init__(self, dst: VReg, tag: Tag) -> None:
        self.dst = dst
        self.tag = tag

    @property
    def dest(self) -> VReg:
        return self.dst

    def tag_set(self) -> TagSet:
        return TagSet.of(self.tag)

    def copy(self) -> "ScalarLoad":
        return ScalarLoad(self.dst, self.tag)

    def __str__(self) -> str:
        return f"{self.dst} = sload [{self.tag}]"


class ScalarStore(Instr):
    """``sstore src -> [tag]`` — explicit store to a named scalar."""

    __slots__ = ("src", "tag")
    opcode = Opcode.SSTORE

    def __init__(self, src: VReg, tag: Tag) -> None:
        self.src = src
        self.tag = tag

    def uses(self) -> tuple[VReg, ...]:
        return (self.src,)

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.src = _subst(mapping, self.src)

    def tag_set(self) -> TagSet:
        return TagSet.of(self.tag)

    def copy(self) -> "ScalarStore":
        return ScalarStore(self.src, self.tag)

    def __str__(self) -> str:
        return f"sstore {self.src} -> [{self.tag}]"


class MemLoad(Instr):
    """``dst = load [addr] tags`` — pointer-based load.

    ``tags`` is the set of locations the address register may point at;
    the front end emits the universal set and analysis shrinks it.
    """

    __slots__ = ("dst", "addr", "tags")
    opcode = Opcode.LOAD

    def __init__(self, dst: VReg, addr: VReg, tags: TagSet) -> None:
        self.dst = dst
        self.addr = addr
        self.tags = tags

    def uses(self) -> tuple[VReg, ...]:
        return (self.addr,)

    @property
    def dest(self) -> VReg:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.addr = _subst(mapping, self.addr)

    def tag_set(self) -> TagSet:
        return self.tags

    def copy(self) -> "MemLoad":
        return MemLoad(self.dst, self.addr, self.tags)

    def __str__(self) -> str:
        return f"{self.dst} = load [{self.addr}] {self.tags}"


class MemStore(Instr):
    """``store src -> [addr] tags`` — pointer-based store."""

    __slots__ = ("src", "addr", "tags")
    opcode = Opcode.STORE

    def __init__(self, src: VReg, addr: VReg, tags: TagSet) -> None:
        self.src = src
        self.addr = addr
        self.tags = tags

    def uses(self) -> tuple[VReg, ...]:
        return (self.src, self.addr)

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.src = _subst(mapping, self.src)
        self.addr = _subst(mapping, self.addr)

    def tag_set(self) -> TagSet:
        return self.tags

    def copy(self) -> "MemStore":
        return MemStore(self.src, self.addr, self.tags)

    def __str__(self) -> str:
        return f"store {self.src} -> [{self.addr}] {self.tags}"


class Jump(Instr):
    """``jmp label`` — unconditional branch."""

    __slots__ = ("target",)
    opcode = Opcode.JMP

    def __init__(self, target: str) -> None:
        self.target = target

    def is_terminator(self) -> bool:
        return True

    def copy(self) -> "Jump":
        return Jump(self.target)

    def __str__(self) -> str:
        return f"jmp {self.target}"


class Branch(Instr):
    """``cbr cond ? if_true : if_false`` — two-way conditional branch."""

    __slots__ = ("cond", "if_true", "if_false")
    opcode = Opcode.CBR

    def __init__(self, cond: VReg, if_true: str, if_false: str) -> None:
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def uses(self) -> tuple[VReg, ...]:
        return (self.cond,)

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.cond = _subst(mapping, self.cond)

    def is_terminator(self) -> bool:
        return True

    def copy(self) -> "Branch":
        return Branch(self.cond, self.if_true, self.if_false)

    def __str__(self) -> str:
        return f"cbr {self.cond} ? {self.if_true} : {self.if_false}"


class Ret(Instr):
    """``ret [value]`` — return from the enclosing function."""

    __slots__ = ("value",)
    opcode = Opcode.RET

    def __init__(self, value: VReg | None = None) -> None:
        self.value = value

    def uses(self) -> tuple[VReg, ...]:
        return (self.value,) if self.value is not None else ()

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        if self.value is not None:
            self.value = _subst(mapping, self.value)

    def is_terminator(self) -> bool:
        return True

    def copy(self) -> "Ret":
        return Ret(self.value)

    def __str__(self) -> str:
        return f"ret {self.value}" if self.value is not None else "ret"


class Call(Instr):
    """``dst = call f(args) mod=... ref=...`` — the paper's JSR.

    ``callee`` is the static target name; indirect calls leave it ``None``
    and pass the function address in ``callee_reg``.  ``mod`` and ``ref``
    are the call's interprocedural side-effect summaries: the tags the call
    may modify and may reference.  The front end initializes both to the
    universal set; MOD/REF analysis replaces them with precise sets.

    ``site_id`` uniquely names the call site within the module; the
    points-to analyzer uses it to name heap memory allocated here.
    """

    __slots__ = ("dst", "callee", "callee_reg", "args", "mod", "ref", "site_id")
    opcode = Opcode.CALL

    def __init__(
        self,
        dst: VReg | None,
        callee: str | None,
        args: Sequence[VReg],
        mod: TagSet | None = None,
        ref: TagSet | None = None,
        callee_reg: VReg | None = None,
        site_id: int = -1,
    ) -> None:
        if callee is None and callee_reg is None:
            raise ValueError("call needs a static callee or a callee register")
        self.dst = dst
        self.callee = callee
        self.callee_reg = callee_reg
        self.args = tuple(args)
        self.mod = mod if mod is not None else TagSet.universe()
        self.ref = ref if ref is not None else TagSet.universe()
        self.site_id = site_id

    def uses(self) -> tuple[VReg, ...]:
        if self.callee_reg is not None:
            return (self.callee_reg, *self.args)
        return self.args

    @property
    def dest(self) -> VReg | None:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.args = tuple(_subst(mapping, a) for a in self.args)
        if self.callee_reg is not None:
            self.callee_reg = _subst(mapping, self.callee_reg)

    def tag_set(self) -> TagSet:
        return self.mod.union(self.ref)

    def is_indirect(self) -> bool:
        return self.callee is None

    def copy(self) -> "Call":
        return Call(self.dst, self.callee, self.args, self.mod, self.ref,
                    self.callee_reg, self.site_id)

    def __str__(self) -> str:
        target = self.callee if self.callee is not None else f"*{self.callee_reg}"
        arglist = ", ".join(str(a) for a in self.args)
        head = f"{self.dst} = " if self.dst is not None else ""
        return f"{head}call {target}({arglist}) mod={self.mod} ref={self.ref}"


class Phi(Instr):
    """SSA phi node: ``dst = phi [pred1: r1, pred2: r2, ...]``.

    Only present while a function is in SSA form (points-to analysis and
    SCCP); SSA destruction lowers phis back to copies.
    """

    __slots__ = ("dst", "incoming")
    opcode = Opcode.PHI

    def __init__(self, dst: VReg, incoming: dict[str, VReg]) -> None:
        self.dst = dst
        self.incoming = dict(incoming)

    def uses(self) -> tuple[VReg, ...]:
        return tuple(self.incoming.values())

    @property
    def dest(self) -> VReg:
        return self.dst

    def replace_uses(self, mapping: Mapping[VReg, VReg]) -> None:
        self.incoming = {
            label: _subst(mapping, reg) for label, reg in self.incoming.items()
        }

    def copy(self) -> "Phi":
        return Phi(self.dst, dict(self.incoming))

    def __str__(self) -> str:
        parts = ", ".join(f"{lbl}: {reg}" for lbl, reg in sorted(self.incoming.items()))
        return f"{self.dst} = phi [{parts}]"


class Nop(Instr):
    """A placeholder that executes nothing and is removed by cleaning."""

    __slots__ = ()
    opcode = Opcode.NOP

    def copy(self) -> "Nop":
        return Nop()

    def __str__(self) -> str:
        return "nop"


def is_memory_load(instr: Instr) -> bool:
    """True for cload/sload/load — the operations the paper counts as loads."""
    return isinstance(instr, (CLoad, ScalarLoad, MemLoad))


def is_memory_store(instr: Instr) -> bool:
    """True for sstore/store — the operations the paper counts as stores."""
    return isinstance(instr, (ScalarStore, MemStore))


def is_memory_op(instr: Instr) -> bool:
    return is_memory_load(instr) or is_memory_store(instr)


def branch_targets(instr: Instr) -> tuple[str, ...]:
    """The labels a terminator may transfer control to."""
    if isinstance(instr, Jump):
        return (instr.target,)
    if isinstance(instr, Branch):
        if instr.if_true == instr.if_false:
            return (instr.if_true,)
        return (instr.if_true, instr.if_false)
    return ()


def retarget(instr: Instr, old: str, new: str) -> None:
    """Rewrite a terminator's edges from ``old`` to ``new`` in place."""
    if isinstance(instr, Jump):
        if instr.target == old:
            instr.target = new
    elif isinstance(instr, Branch):
        if instr.if_true == old:
            instr.if_true = new
        if instr.if_false == old:
            instr.if_false = new
