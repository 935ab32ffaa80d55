"""Tests for clone creation and the standalone clone application path
(the materializing-WPA oracle's, over a plain Program)."""

from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext
from repro.hlo.transforms.clone import make_clone
from repro.interp import run_program
from repro.ir import Opcode, assert_valid_program
from tests.oracles.materialize_wpa import apply_clones, plan_clones

SOURCES = {
    "m": """
func kernel(mode, x) {
    if (mode == 0) { return x * 2; }
    if (mode == 1) { return x * 3; }
    return x;
}
func fast_path(x) { return kernel(0, x); }
func slow_path(x) { return kernel(1, x); }
func dynamic_path(x, m) { return kernel(m, x); }
func main() {
    return fast_path(5) * 100 + slow_path(5) * 10 + dynamic_path(5, 2);
}
"""
}


def setup():
    program = compile_sources(SOURCES)
    ctx = OptContext(program.symtab, HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    return program, ctx


class TestMakeClone:
    def test_bindings_at_entry(self):
        program, _ = setup()
        kernel = program.routine("kernel")
        clone = make_clone(kernel, ((0, 0),), "kernel::cl0")
        first = clone.entry.instrs[0]
        assert first.op is Opcode.CONST
        assert first.dst == 0 and first.imm == 0
        assert not clone.exported
        assert clone.annotations["cloned_from"] == "kernel"

    def test_original_untouched(self):
        program, _ = setup()
        kernel = program.routine("kernel")
        before = kernel.instr_count()
        make_clone(kernel, ((0, 0), (1, 9)), "kernel::cl1")
        assert kernel.instr_count() == before


class TestApplyClones:
    def test_end_to_end(self):
        reference = run_program(compile_sources(SOURCES)).value
        program, ctx = setup()
        decisions = plan_clones(
            ctx, program.all_routines(), program.find_routine
        )
        assert decisions, "disagreeing constant sites exist"
        created = apply_clones(
            ctx, program, decisions, program.find_routine
        )
        assert created
        assert_valid_program(program)
        assert run_program(program).value == reference
        # The fast path now calls a clone.
        fast = program.routine("fast_path")
        callee = fast.call_sites()[0][2]
        assert "::cl" in callee

    def test_clone_cap(self):
        program, ctx = setup()
        decisions = plan_clones(
            ctx, program.all_routines(), program.find_routine
        )
        created = apply_clones(
            ctx, program, decisions, program.find_routine, max_clones=0
        )
        assert created == []
