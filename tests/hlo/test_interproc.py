"""Unit tests for IPCP, cloning and dead-function elimination.

IPCP and clone planning over bodies live in the materializing-WPA
test oracle; production runs the same decisions over summaries
(``tests/hlo/test_thin_wpa.py`` and the byte-identity properties).
"""

from repro.frontend import compile_sources
from repro.hlo.analysis.modref import ModRefAnalysis
from repro.hlo.options import HloOptions
from repro.hlo.passes import OptContext
from repro.hlo.transforms.dfe import eliminate_dead_functions, reachable_routines
from repro.interp import run_program
from repro.ir import Opcode
from tests.oracles.materialize_wpa import (
    constant_return_value,
    gather_param_constants,
    plan_clones,
    publish_interprocedural_facts,
)


def ctx_for(program, options=None):
    ctx = OptContext(program.symtab, options or HloOptions())
    ctx.modref = ModRefAnalysis.analyze(program.all_routines())
    return ctx


class TestParamConstants:
    SOURCES = {
        "m": """
func uniform(a, b) { return a * b; }
func varied(a) { return a + 1; }
func main() {
    var x = uniform(10, 2) + uniform(10, 3);
    return x + varied(1) + varied(2);
}
"""
    }

    def test_uniform_param_detected(self):
        program = compile_sources(self.SOURCES)
        facts = gather_param_constants(
            program.all_routines(), program.find_routine
        )
        assert facts["uniform"][0] == 10  # always 10
        assert facts["uniform"][1] is None  # 2 vs 3
        assert facts["varied"][0] is None

    def test_publish_binds_uniform_params(self):
        program = compile_sources(self.SOURCES)
        reference = run_program(program).value
        ctx = ctx_for(program)
        names = [r.name for r in program.all_routines()]
        bound = publish_interprocedural_facts(
            ctx, names, program.find_routine,
            program.symtab.all_global_names(),
        )
        assert bound == {"uniform": 1}
        entry = program.routine("uniform").entry
        assert entry.instrs[0].op is Opcode.CONST
        assert entry.instrs[0].imm == 10
        assert run_program(program).value == reference

    def test_externally_callable_not_bound(self):
        program = compile_sources(self.SOURCES)
        ctx = ctx_for(program)
        names = [r.name for r in program.all_routines()]
        bound = publish_interprocedural_facts(
            ctx, names, program.find_routine,
            program.symtab.all_global_names(),
            externally_callable=frozenset({"uniform"}),
        )
        assert "uniform" not in bound


class TestConstReturns:
    def test_constant_return_detected(self):
        program = compile_sources(
            {"m": "func five() { return 5; }\nfunc main() { return five(); }"}
        )
        assert constant_return_value(program.routine("five")) == 5

    def test_void_return_is_zero(self):
        program = compile_sources(
            {"m": "func nop() { return; }\nfunc main() { nop(); return 1; }"}
        )
        assert constant_return_value(program.routine("nop")) == 0

    def test_varying_return_not_constant(self):
        program = compile_sources(
            {"m": "func echo(a) { return a; }\nfunc main() { return echo(1); }"}
        )
        assert constant_return_value(program.routine("echo")) is None

    def test_mixed_paths_same_constant(self):
        program = compile_sources(
            {"m": "func c(a) { if (a) { return 4; } return 4; }\n"
                  "func main() { return c(1); }"}
        )
        assert constant_return_value(program.routine("c")) == 4


class TestReadonlyGlobals:
    def test_promoted(self):
        sources = {
            "m": """
global ro = 9;
global rw = 0;
func main() { rw = ro + 1; return rw; }
"""
        }
        program = compile_sources(sources)
        ctx = ctx_for(program)
        publish_interprocedural_facts(
            ctx, ["main"], program.find_routine,
            program.symtab.all_global_names(),
        )
        assert "ro" in ctx.readonly_globals
        assert "rw" not in ctx.readonly_globals

    def test_externally_visible_excluded(self):
        sources = {
            "m": "global ro = 9;\nfunc main() { return ro; }"
        }
        program = compile_sources(sources)
        ctx = ctx_for(program)
        publish_interprocedural_facts(
            ctx, ["main"], program.find_routine,
            program.symtab.all_global_names(),
            externally_visible_globals=frozenset({"ro"}),
        )
        assert "ro" not in ctx.readonly_globals


class TestCloning:
    SOURCES = {
        "m": """
func kernel(mode, x) {
    if (mode == 0) { return x * 2; }
    return x * 3;
}
func hot_user(x) { return kernel(0, x); }
func other_user(x, m) { return kernel(m, x); }
func main() { return hot_user(5) + other_user(5, 1); }
"""
    }

    def test_disagreeing_sites_cloned(self):
        program = compile_sources(self.SOURCES)
        ctx = ctx_for(program)
        decisions = plan_clones(
            ctx, program.all_routines(), program.find_routine
        )
        callees = [d.callee for d in decisions]
        assert "kernel" in callees
        decision = decisions[callees.index("kernel")]
        assert (0, 0) in decision.bindings

    def test_uniform_sites_not_cloned(self):
        sources = {
            "m": """
func k(a) { return a * 2; }
func u1() { return k(7); }
func u2() { return k(7); }
func main() { return u1() + u2(); }
"""
        }
        program = compile_sources(sources)
        ctx = ctx_for(program)
        decisions = plan_clones(
            ctx, program.all_routines(), program.find_routine
        )
        assert decisions == []  # IPCP handles the uniform constant


class TestDeadFunctionElim:
    SOURCES = {
        "a": """
func used(x) { return x + 1; }
func unused(x) { return x - 1; }
func unused_chain(x) { return unused(x); }
""",
        "b": "func main() { return used(1); }",
    }

    def test_reachable_set(self):
        program = compile_sources(self.SOURCES)
        assert reachable_routines(program) == {"main", "used"}

    def test_elimination(self):
        program = compile_sources(self.SOURCES)
        removed = eliminate_dead_functions(program)
        assert sorted(removed) == ["unused", "unused_chain"]
        assert "unused" not in program.modules["a"].routines
        assert run_program(program).value == 2

    def test_library_without_main_untouched(self):
        sources = {"a": "func f() { return 1; }"}
        program = compile_sources(sources)
        assert eliminate_dead_functions(program) == []

    def test_custom_roots(self):
        program = compile_sources(self.SOURCES)
        removed = eliminate_dead_functions(
            program, roots=["main", "unused_chain"]
        )
        assert removed == []  # unused kept via unused_chain
