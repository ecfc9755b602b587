"""Per-loop dynamic profiling: exactness, attribution, and the
zero-overhead contract of the profile-off path."""

from repro.diag.profile import (
    block_mix,
    format_profile,
    format_profile_comparison,
    profile_loops,
)
from repro.frontend import compile_c
from repro.interp import MachineOptions, run_module

TWO_LOOPS = r"""
int a;
int b;

int main(void) {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 100; i = i + 1) {
        a = a + i;
        s = s + a;
    }
    for (i = 0; i < 5; i = i + 1) {
        b = b + i;
    }
    printf("%d %d\n", s, b);
    return 0;
}
"""


def profiled_run(source: str):
    module = compile_c(source)
    run = run_module(module, options=MachineOptions(profile=True))
    return module, run


class TestExactness:
    def test_block_counts_reconstruct_the_counters(self):
        """visits x static mix == the interpreter's own dynamic counters —
        the invariant the whole block-granularity design rests on."""
        module, run = profiled_run(TWO_LOOPS)
        ops = loads = stores = 0
        for func in module.functions.values():
            for label, block in func.blocks.items():
                count = (run.block_visits or {}).get((func.name, label), 0)
                mix = block_mix(block)
                ops += count * mix.ops
                loads += count * mix.loads
                stores += count * mix.stores
        assert ops == run.counters.total_ops
        assert loads == run.counters.loads
        assert stores == run.counters.stores

    def test_profiling_never_changes_the_experiment(self):
        module_off = compile_c(TWO_LOOPS)
        off = run_module(module_off, options=MachineOptions(profile=False))
        module_on = compile_c(TWO_LOOPS)
        on = run_module(module_on, options=MachineOptions(profile=True))
        assert on.counters == off.counters
        assert on.output == off.output
        assert on.exit_code == off.exit_code


class TestAttribution:
    def test_two_loops_rank_by_dynamic_ops(self):
        module, run = profiled_run(TWO_LOOPS)
        rows = profile_loops(module, run.block_visits or {})
        assert len(rows) == 2
        hot, cool = rows  # sorted hottest first
        assert hot.ops > cool.ops
        assert hot.visits > cool.visits
        # both loops touch memory every iteration in the raw module
        assert hot.loads > 0 and hot.stores > 0
        assert cool.loads > 0 and cool.stores > 0
        # the 100-iteration loop runs ~20x the 5-iteration one
        assert hot.visits >= 10 * cool.visits

    def test_rows_carry_function_and_header(self):
        module, run = profiled_run(TWO_LOOPS)
        for row in profile_loops(module, run.block_visits or {}):
            assert row.function == "main"
            assert row.header in module.functions["main"].blocks
            assert row.depth >= 1
            assert row.as_dict()["visits"] == row.visits


class TestOverheadGuard:
    def test_profile_off_allocates_no_visit_map(self):
        module = compile_c(TWO_LOOPS)
        run = run_module(module, options=MachineOptions())
        assert run.block_visits is None

    def test_default_machine_options_are_profile_off(self):
        assert MachineOptions().profile is False

    def test_dispatch_loop_has_no_per_instruction_profiling(self):
        """The per-instruction dispatch must not consult the visit map —
        profiling hooks in once per *block*, before the instruction loop."""
        import inspect

        from repro.interp.machine import Machine

        source = inspect.getsource(Machine._exec_block)
        dispatch = source.split("for instr in", 1)[1]
        assert "visits" not in dispatch
        assert "block_visits" not in dispatch


class TestFormatting:
    def test_format_profile_table(self):
        module, run = profiled_run(TWO_LOOPS)
        rows = profile_loops(module, run.block_visits or {})
        table = format_profile(rows)
        assert "visits" in table
        assert "main@" in table
        assert format_profile([]) == "(no loops executed)"

    def test_format_profile_limit(self):
        module, run = profiled_run(TWO_LOOPS)
        rows = profile_loops(module, run.block_visits or {})
        table = format_profile(rows, limit=1)
        assert "1 cooler loop(s) not shown" in table

    def test_comparison_marks_missing_loops(self):
        module, run = profiled_run(TWO_LOOPS)
        rows = profile_loops(module, run.block_visits or {})
        table = format_profile_comparison(rows, [], "nopromo", "promo")
        assert "-" in table
        assert "loads nopromo" in table
        assert format_profile_comparison([], []) == "(no loops executed)"
