"""Differential oracle: every engine vs the reference loop.

The engine contract is *bit-identical observables* — counters (every
field), output, exit code, ``block_visits`` under profiling, ``clock()``
values, traps, and the exact operation count at which ``max_steps``
exhaustion fires.  The block-threaded engine must satisfy it through
batching; the tier-2 specializing engine must satisfy it through exact
deoptimization of its compiled regions.  These tests enforce the
contract over the whole 14-program benchmark suite at -O0 and through
the full pipeline, plus targeted boundary cases the suite cannot hit
(including the tier-2 deopt edges: ``max_steps`` expiring mid-region,
traps inside promoted regions, and cache invalidation between runs).
"""

from __future__ import annotations

import copy
import pickle
import sys

import pytest

from repro.errors import InterpError, InterpTrap, ResourceLimitError
from repro.interp import ENGINES, Machine, MachineOptions, invalidate_decoded
from repro.ir.instructions import LoadI
from repro.pipeline import Analysis, PipelineOptions, compile_source
from repro.workloads import get_workload, workload_names

O0 = PipelineOptions(
    analysis=Analysis.NONE,
    promotion=False,
    pointer_promotion=False,
    value_numbering=False,
    constant_propagation=False,
    licm=False,
    pre=False,
    dce=False,
    clean=False,
    run_regalloc=False,
)
FULL = PipelineOptions()

PIPELINES = {"O0": O0, "full": FULL}


def _module(workload, options):
    return compile_source(
        workload.source, options, name=workload.name, defines=workload.defines
    ).module


def _run(module, engine, **kwargs):
    options = MachineOptions(engine=engine, profile=True, **kwargs)
    return Machine(module, options).run()


def _assert_identical(simple, threaded, context):
    assert simple.counters.as_dict() == threaded.counters.as_dict(), context
    assert simple.output == threaded.output, context
    assert simple.exit_code == threaded.exit_code, context
    assert simple.returned == threaded.returned, context
    assert simple.block_visits == threaded.block_visits, context


#: suite programs whose full-equivalence sweep dominates tier-1 wall
#: time (three engines x two runs each); they run in CI and under
#: plain `pytest`, but `-m "not slow"` skips them for the fast lane,
#: which keeps allroots/dhrystone/fft/mlink as its equivalence smoke
SLOW_WORKLOADS = frozenset(
    {
        "bc",
        "bison",
        "clean",
        "compress",
        "go",
        "gzip_enc",
        "gzip_dec",
        "indent",
        "tsp",
        "water",
    }
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW_WORKLOADS else n
        for n in workload_names()
    ],
)
@pytest.mark.parametrize("pipeline", list(PIPELINES))
def test_workload_observables_identical(name, pipeline):
    workload = get_workload(name)
    options = PIPELINES[pipeline]
    simple = _run(_module(workload, options), "simple")
    for engine in ("threaded", "tier2"):
        module = _module(workload, options)
        run = _run(module, engine)
        _assert_identical(simple, run, f"{name}/{pipeline}/{engine}")
        # a second run on the same module exercises the warm caches (the
        # threaded decode cache / the tier-2 compiled-region cache)
        rerun = _run(module, engine)
        _assert_identical(run, rerun, f"{name}/{pipeline}/{engine} warm")


class TestMaxStepsExhaustion:
    """The limit fires at the same op count, with the same message, and
    leaves the counters in the same state under both engines."""

    def _modules(self):
        workload = get_workload("fft")
        return lambda: _module(workload, FULL)

    @pytest.mark.slow
    def test_limit_boundary(self):
        fresh = self._modules()
        total = _run(fresh(), "threaded").counters.total_ops
        for engine in ENGINES:
            # exactly enough steps: completes
            run = _run(fresh(), engine, max_steps=total)
            assert run.counters.total_ops == total
            # one short (and much shorter): raises
            for limit in (total - 1, total // 2, 1):
                machine = Machine(
                    fresh(), MachineOptions(engine=engine, max_steps=limit)
                )
                with pytest.raises(ResourceLimitError) as exc:
                    machine.run()
                assert str(exc.value) == (
                    f"exceeded {limit} executed operations"
                )
                if engine == "simple":
                    states = getattr(self, "_states", {})
                    states[limit] = machine.counters.as_dict()
                    self._states = states
                else:
                    assert machine.counters.as_dict() == self._states[limit]


def test_clock_values_identical():
    source = r"""
    int main(void) {
        int t0 = clock();
        int i; int s = 0;
        for (i = 0; i < 100; i = i + 1) { s = s + i; }
        int t1 = clock();
        printf("c0=%d c1=%d s=%d\n", t0, t1, s);
        return 0;
    }
    """
    outputs = set()
    for engine in ENGINES:
        module = compile_source(source, FULL).module
        outputs.add(_run(module, engine).output)
    assert len(outputs) == 1


def test_trap_identical():
    source = 'int main(void) { int a = 7; int b = 0; printf("%d", a / b); return 0; }'
    messages = set()
    for engine in ENGINES:
        module = compile_source(source, FULL).module
        with pytest.raises(InterpTrap) as exc:
            _run(module, engine)
        messages.add(str(exc.value))
    assert messages == {"integer division by zero"}


def test_deep_recursion_limit_identical():
    source = r"""
    int f(int n) { if (n == 0) { return 0; } return f(n - 1); }
    int main(void) { return f(5000); }
    """
    messages = set()
    for engine in ENGINES:
        module = compile_source(source, O0).module
        with pytest.raises(ResourceLimitError) as exc:
            _run(module, engine)
        messages.add(str(exc.value))
    assert messages == {"interpreted call stack too deep"}


def test_unknown_engine_rejected():
    module = compile_source("int main(void) { return 0; }", O0).module
    with pytest.raises(InterpError, match="unknown interpreter engine"):
        Machine(module, MachineOptions(engine="jit")).run()


class TestDecodeCache:
    def test_cache_lives_on_module_and_pickles_away(self):
        module = compile_source("int main(void) { return 3; }", O0).module
        _run(module, "threaded")
        assert hasattr(module, "_decoded")
        clone = pickle.loads(pickle.dumps(module))
        assert not hasattr(clone, "_decoded")
        assert _run(clone, "threaded").exit_code == 3
        deep = copy.deepcopy(module)
        assert not hasattr(deep, "_decoded")
        assert _run(deep, "threaded").exit_code == 3

    def test_invalidate_decoded(self):
        module = compile_source("int main(void) { return 3; }", O0).module
        _run(module, "threaded")
        invalidate_decoded(module)
        assert not hasattr(module, "_decoded")
        assert _run(module, "threaded").exit_code == 3
        invalidate_decoded(module)  # idempotent on a cold module

    def test_instruction_replacement_invalidates(self):
        # passes rewrite programs by splicing in new instruction objects;
        # the staleness signature must notice and re-decode
        module = compile_source(
            'int main(void) { printf("%d\\n", 7); return 0; }', O0
        ).module
        assert _run(module, "threaded").output == "7\n"
        for func in module.functions.values():
            for block in func.blocks.values():
                block.instrs = [
                    LoadI(i.dst, 8)
                    if isinstance(i, LoadI) and i.value == 7
                    else i
                    for i in block.instrs
                ]
        assert _run(module, "threaded").output == "8\n"


def _tier2_compiled(module) -> bool:
    """Did the tier-2 engine compile at least one region on ``module``?"""
    dm = module.__dict__.get("_tier2")
    if dm is None:
        return False
    return any(
        tf.regions or tf.fresh_off is not None or tf.fresh_on is not None
        for tf in dm.functions.values()
    )


#: a hot callee (fresh-entry region) plus a hot caller loop — both cross
#: the tier-2 threshold well before the program's midpoint
HOT_SOURCE = r"""
int g;
int work(int n) {
    int i; int s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + i; g = g + 1; }
    return s;
}
int main(void) {
    int r = 0; int k;
    for (k = 0; k < 40; k = k + 1) { r = r + work(50); }
    printf("r=%d g=%d\n", r, g);
    return 0;
}
"""


class TestTier2Deopt:
    """The tier-2 exactness contract at its deoptimization edges: the
    engine must leave *identical* observables when a compiled region is
    interrupted (fuel exhaustion, traps) or its cache is torn down
    (invalidation, pickling) — not merely on clean completions."""

    def test_max_steps_expires_mid_region_with_identical_counters(self):
        module = compile_source(HOT_SOURCE, FULL).module
        total = _run(module, "tier2").counters.total_ops
        assert _tier2_compiled(module)
        for limit in (total // 2, 2 * total // 3, total - 1):
            reference = None
            for engine in ENGINES:
                fresh = compile_source(HOT_SOURCE, FULL).module
                machine = Machine(
                    fresh, MachineOptions(engine=engine, max_steps=limit)
                )
                with pytest.raises(ResourceLimitError) as exc:
                    machine.run()
                assert str(exc.value) == (
                    f"exceeded {limit} executed operations"
                )
                if engine == "tier2":
                    # the limit really interrupted compiled code, not a
                    # cold fallback path
                    assert _tier2_compiled(fresh)
                state = machine.counters.as_dict()
                if reference is None:
                    reference = state
                else:
                    assert state == reference, (engine, limit)

    def test_trap_inside_promoted_region_flushes_state(self):
        # the loop-local `s` and the induction variable are promoted to
        # Python locals; the division traps on iteration 50, long after
        # the region compiled at the hot threshold, so the deopt path
        # must write the slots and counter deltas back before the trap
        # surfaces
        source = r"""
        int main(void) {
            int i; int s = 0;
            for (i = 0; i < 100; i = i + 1) {
                s = s + 1000 / (50 - i);
            }
            printf("s=%d\n", s);
            return 0;
        }
        """
        states = {}
        for engine in ENGINES:
            module = compile_source(source, FULL).module
            machine = Machine(module, MachineOptions(engine=engine))
            with pytest.raises(InterpTrap) as exc:
                machine.run()
            assert str(exc.value) == "integer division by zero"
            if engine == "tier2":
                assert _tier2_compiled(module)
            states[engine] = machine.counters.as_dict()
        # post-trap counters follow the threaded engine's batch-charging
        # semantics (a block's ops are counted before it executes), which
        # the reference loop does not share; the tier-2 contract is that
        # its except-path flush lands on *exactly* the threaded state —
        # promoted slots and counter deltas written back, nothing lost
        assert states["tier2"] == states["threaded"]

    def test_recursion_into_invalidated_region_recompiles(self):
        # fib's whole body is an entry-headed candidate region; after
        # invalidation the next run re-enters it through cold probes
        # (recursively) and must recompile to the same observables
        source = r"""
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main(void) { printf("%d\n", fib(15)); return 0; }
        """
        simple = _run(compile_source(source, FULL).module, "simple")
        module = compile_source(source, FULL).module
        first = _run(module, "tier2")
        _assert_identical(simple, first, "tier2 first run")
        assert _tier2_compiled(module)
        invalidate_decoded(module)
        assert not hasattr(module, "_tier2")
        again = _run(module, "tier2")
        _assert_identical(simple, again, "tier2 after invalidation")
        assert _tier2_compiled(module)

    def test_pickle_and_deepcopy_strip_compiled_regions(self):
        module = compile_source(HOT_SOURCE, FULL).module
        reference = _run(module, "tier2")
        assert _tier2_compiled(module)
        clone = pickle.loads(pickle.dumps(module))
        assert not hasattr(clone, "_tier2")
        _assert_identical(reference, _run(clone, "tier2"), "pickle clone")
        deep = copy.deepcopy(module)
        assert not hasattr(deep, "_tier2")
        _assert_identical(reference, _run(deep, "tier2"), "deepcopy clone")


@pytest.mark.parametrize("engine", ["threaded", "tier2"])
def test_traced_entry_spans(engine):
    """Both compiled engines enter through one traced path: a decode span
    that reports the cache hit, and a run span carrying the op count."""
    from repro.trace import tracing

    module = compile_source(HOT_SOURCE, FULL).module
    for cached in (False, True):
        with tracing() as trace:
            run = Machine(module, MachineOptions(engine=engine)).run()
        spans = {e.name: e for e in trace.events}
        assert spans["interp.decode"].args["cached"] is cached
        assert spans["interp.run"].args["function"] == "main"
        assert spans["interp.run"].args["total_ops"] == run.counters.total_ops


class TestExactHandoff:
    """A compiled engine whose batched ``max_steps`` guard trips hands the
    rest of the block to the reference stepper (``Machine._exec_block``)
    at an exact instruction index.  Every limit in a window of consecutive
    limits must then raise with the reference engine's message, counters
    and ``block_visits`` — with profiling off and on."""

    #: HOT_SOURCE under FULL: the first tier-2 region (work's loop)
    #: compiles at op 56 and main's first post-call segment runs at ops
    #: 318-320.  Main's loop region compiles at op 2211, with work's
    #: fresh entry variant right after; the region's first post-call
    #: segment runs at ops 2523-2525 and the fresh variant's first
    #: segment at op 2529.
    WINDOWS = {
        "first-compile": range(1, 331),
        "region-post-call": range(2331, 2541),
    }

    @pytest.mark.parametrize("profile", [False, True])
    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_consecutive_limits_identical(self, window, profile, monkeypatch):
        module = compile_source(HOT_SOURCE, FULL).module
        # compiled engines reach the stepper only through a guard handoff
        handoffs: set[tuple[str, bool]] = set()
        step = Machine._exec_block

        def spy(self, func, label, start, regs, frame_addrs):
            if self.options.engine != "simple":
                handoffs.add((self.options.engine, start > 0))
            return step(self, func, label, start, regs, frame_addrs)

        monkeypatch.setattr(Machine, "_exec_block", spy)
        compiled = set()
        for limit in self.WINDOWS[window]:
            outcomes = {}
            for engine in ENGINES:
                invalidate_decoded(module)  # every run starts cold
                machine = Machine(
                    module,
                    MachineOptions(
                        engine=engine, max_steps=limit, profile=profile
                    ),
                )
                with pytest.raises(ResourceLimitError) as exc:
                    machine.run()
                if engine == "tier2":
                    compiled.add(_tier2_compiled(module))
                outcomes[engine] = (
                    str(exc.value),
                    machine.counters.as_dict(),
                    machine.block_visits,
                )
            assert outcomes["simple"][0] == (
                f"exceeded {limit} executed operations"
            )
            assert outcomes["threaded"] == outcomes["simple"], limit
            assert outcomes["tier2"] == outcomes["simple"], limit
        if window == "first-compile":
            # the window straddles the first region compile
            assert compiled == {False, True}
        else:
            assert compiled == {True}
        # handoffs at a block's first segment and after a call, from both
        # compiled engines
        assert handoffs == {
            ("threaded", False),
            ("threaded", True),
            ("tier2", False),
            ("tier2", True),
        }


def test_recursion_limit_restored_after_run():
    old = sys.getrecursionlimit()
    module = compile_source("int main(void) { return 0; }", O0).module
    for engine in ENGINES:
        Machine(module, MachineOptions(engine=engine)).run()
        assert sys.getrecursionlimit() == old

    # restored even when the run raises
    trap = compile_source(
        "int main(void) { int z = 0; return 1 / z; }", O0
    ).module
    with pytest.raises(InterpTrap):
        Machine(trap, MachineOptions(engine="threaded")).run()
    assert sys.getrecursionlimit() == old
