"""Tests for liveness analysis and def-use chains.

Liveness sets hold register ids, so membership is checked on ``reg.id``.
"""

from repro.analysis.defuse import compute_def_use
from repro.analysis.liveness import compute_liveness, live_across_calls
from repro.ir import (
    BinOp,
    Call,
    Function,
    IRBuilder,
    Opcode,
    Phi,
    VReg,
)


def loop_function():
    """x defined before a loop and used after it stays live through it."""
    func = Function("f")
    b = IRBuilder(func)
    entry = b.start_block("entry")
    x = b.loadi(7, hint="x")
    header = func.new_block(label="H")
    body = func.new_block(label="B")
    exit_ = func.new_block(label="X")
    b.jmp(header)
    b.set_block(header)
    cond = b.loadi(1)
    b.cbr(cond, body, exit_)
    b.set_block(body)
    y = b.loadi(2)
    b.jmp(header)
    b.set_block(exit_)
    b.ret(x)
    return func, x, y


class TestLiveness:
    def test_live_through_loop(self):
        func, x, y = loop_function()
        live = compute_liveness(func)
        assert x.id in live.live_in["H"]
        assert x.id in live.live_in["B"]
        assert x.id in live.live_in["X"]

    def test_dead_after_last_use(self):
        func, x, y = loop_function()
        live = compute_liveness(func)
        assert y.id not in live.live_out["B"]
        assert x.id not in live.live_out["X"]

    def test_params_live_in_entry_when_used(self):
        func = Function("g", params=[VReg(0, "a")])
        b = IRBuilder(func)
        b.start_block()
        b.ret(func.params[0])
        live = compute_liveness(func)
        assert func.params[0].id in live.live_in[func.entry]

    def test_phi_operand_live_out_of_pred(self):
        func = Function("p")
        b = IRBuilder(func)
        entry = b.start_block("entry")
        v1 = b.loadi(1)
        join = func.new_block(label="J")
        b.jmp(join)
        phi_dst = func.new_vreg()
        join.instrs.append(Phi(phi_dst, {entry.label: v1}))
        b.set_block(join)
        b.ret(phi_dst)
        live = compute_liveness(func)
        assert v1.id in live.live_out[entry.label]
        # phi defs are not live-in to their own block
        assert phi_dst.id not in live.live_in["J"]


class TestLiveAcrossCalls:
    def test_value_held_over_call(self):
        func = Function("h")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(5)
        b.call("printf", [])
        y = b.add(x, x)
        b.ret(y)
        across = live_across_calls(func)
        assert x.id in across
        assert y.id not in across


class TestDefUse:
    def test_counts(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(1)
        y = b.add(x, x)
        b.ret(y)
        info = compute_def_use(func)
        assert info.use_count(x) == 2
        assert info.use_count(y) == 1
        assert info.single_def(x) is not None
        assert not info.is_dead(x)

    def test_dead_register(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(1)
        b.ret()
        info = compute_def_use(func)
        assert info.is_dead(x)

    def test_multiple_defs(self):
        func = Function("f")
        b = IRBuilder(func)
        b.start_block()
        x = b.loadi(1)
        b.mov(x, dst=x)
        b.ret(x)
        info = compute_def_use(func)
        assert info.single_def(x) is None
        assert len(info.defs[x]) == 2

    def test_params_count_as_defs(self):
        func = Function("f", params=[VReg(0)])
        b = IRBuilder(func)
        b.start_block()
        b.ret(func.params[0])
        info = compute_def_use(func)
        assert info.defs[func.params[0]] == [("<param>", -1)]
