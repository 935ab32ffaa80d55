"""The materializing whole-program analysis, kept as a test oracle.

Production WPA (:meth:`HighLevelOptimizer._optimize_thin`) decides
every cross-module transform from routine summaries and records the
body mutations on a :class:`~repro.hlo.thin.WpaPlan` that phase 5
replays.  This module keeps the classic driver it replaced: phases
0-4.5 walk expanded bodies and mutate them in place -- IPCP binds
constant parameters, cloning copies callees, the inliner splices.
The two must give byte-identical images, so tests switch this one in
and compare::

    with materializing_wpa():
        reference = Compiler(options).build(sources)

Only the WPA method is swapped; the scalar phase, the partitioned
backends and the linker are the production ones (a result without a
plan ships bodies to partitions instead of replaying).
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple
from unittest import mock

from repro.hlo.analysis.modref import ModRefAnalysis, direct_modref
from repro.hlo.driver import CmoUnit, HighLevelOptimizer, HloResult
from repro.hlo.passes import OptContext
from repro.hlo.profile_view import ProfileView
from repro.hlo.transforms.clone import CloneDecision, make_clone
from repro.hlo.transforms.dfe import eliminate_dead_functions
from repro.hlo.transforms.inline import (
    InlineCandidate,
    InlineEngine,
    _inject_bug,
    splice_call,
)
from repro.hlo.transforms.ipcp import _CONFLICT, _const_def_in_block
from repro.incr.summary import (
    SUMMARY_FORMAT,
    ConsumedFacts,
    modref_fingerprint,
    routine_body_hash,
    view_fingerprint,
)
from repro.ir.callgraph import CallGraph, CallGraphNode, CallSite
from repro.ir.instructions import Instr, Opcode
from repro.ir.module import Module
from repro.ir.program import ENTRY_NAME, Program
from repro.ir.routine import Routine
from repro.naim.loader import Loader
from repro.naim.memory import callgraph_bytes, program_symtab_bytes


def materializing_wpa():
    """Context manager: run the materializing WPA instead of the thin one."""
    return mock.patch.object(
        HighLevelOptimizer, "_optimize_thin", optimize_materialized
    )


# -- Interprocedural constant propagation over bodies ---------------------------


def gather_param_constants(
    routines: Iterable[Routine],
    resolve: Callable[[str], Optional[Routine]],
) -> Dict[str, List[Optional[int]]]:
    """Map routine name -> per-parameter constant (None = not constant).

    A parameter is constant when *every* call site passes the same
    literal (a CONST definition visible in the site's own block).
    """
    facts: Dict[str, list] = {}
    for caller in routines:
        for block_label, index, callee_name in caller.call_sites():
            callee = resolve(callee_name)
            if callee is None:
                continue
            call = caller.block(block_label).instrs[index]
            slots = facts.setdefault(callee_name, [None] * callee.n_params)
            for param_index, arg_reg in enumerate(call.args):
                if param_index >= len(slots):
                    continue
                observed = _const_def_in_block(
                    caller, block_label, index, arg_reg
                )
                current = slots[param_index]
                if observed is None:
                    slots[param_index] = _CONFLICT
                elif current is None:
                    slots[param_index] = observed
                elif current is not _CONFLICT and current != observed:
                    slots[param_index] = _CONFLICT
    return {
        name: [v if isinstance(v, int) else None for v in slots]
        for name, slots in facts.items()
    }


def apply_param_constants(
    routine: Routine, constants: List[Optional[int]]
) -> int:
    """Materialize known-constant parameters at the routine entry."""
    bindings = [
        (index, value)
        for index, value in enumerate(constants[: routine.n_params])
        if value is not None
    ]
    if not bindings:
        return 0
    entry = routine.entry
    for offset, (param_index, value) in enumerate(bindings):
        entry.instrs.insert(
            offset, Instr(Opcode.CONST, dst=param_index, imm=value)
        )
    routine.invalidate()
    return len(bindings)


def constant_return_value(routine: Routine) -> Optional[int]:
    """The single literal this routine always returns, if provable.

    Conservative: each RET must return a register set by an in-block
    CONST (or return nothing, which is the literal 0).
    """
    result: Optional[int] = None
    found_any = False
    for block in routine.blocks:
        term = block.terminator
        if term is None or term.op is not Opcode.RET:
            continue
        found_any = True
        if term.a is None:
            value: Optional[int] = 0
        else:
            value = _const_def_in_block(
                routine, block.label, len(block.instrs) - 1, term.a
            )
        if value is None:
            return None
        if result is None:
            result = value
        elif result != value:
            return None
    return result if found_any else None


def publish_interprocedural_facts(
    ctx: OptContext,
    routine_names: List[str],
    resolve: Callable[[str], Optional[Routine]],
    all_global_names: Iterable[str],
    externally_callable: "frozenset[str]" = frozenset(),
    externally_visible_globals: "frozenset[str]" = frozenset(),
) -> Dict[str, int]:
    """Fill ctx.readonly_globals / ctx.const_returns; bind const params.

    Facts that depend on seeing every caller/writer are suppressed for
    ``externally_callable`` routines and ``externally_visible_globals``
    symbols.  Returns {routine_name: n params bound}.
    """
    bound: Dict[str, int] = {}
    if not ctx.options.ipcp_enabled:
        return bound

    if ctx.options.readonly_global_promotion and ctx.modref is not None:
        ctx.readonly_globals = (
            ctx.modref.never_written_globals(all_global_names)
            - set(externally_visible_globals)
        )

    def routines():
        for name in routine_names:
            routine = resolve(name)
            if routine is not None:
                yield routine

    param_facts = gather_param_constants(routines(), resolve)
    for name in routine_names:
        if name == ENTRY_NAME or name in externally_callable:
            continue
        constants = param_facts.get(name)
        if constants:
            routine = resolve(name)
            if routine is None:
                continue
            count = apply_param_constants(routine, constants)
            if count:
                bound[name] = count
                ctx.stats.bump("ipcp_params", count)

    for name in routine_names:
        routine = resolve(name)
        if routine is None:
            continue
        value = constant_return_value(routine)
        if value is not None:
            ctx.const_returns[name] = value
    return bound


# -- Procedure cloning over bodies -----------------------------------------------


def _site_constant_bindings(
    caller: Routine, block_label: str, index: int
) -> Tuple[Tuple[int, int], ...]:
    """Constant (param, value) pairs a specific call site passes."""
    call = caller.block(block_label).instrs[index]
    bindings = []
    for param_index, arg_reg in enumerate(call.args):
        value = _const_def_in_block(caller, block_label, index, arg_reg)
        if value is not None:
            bindings.append((param_index, value))
    return tuple(bindings)


def plan_clones(
    ctx: OptContext,
    callers: Iterable[Routine],
    resolve: Callable[[str], Optional[Routine]],
) -> List[CloneDecision]:
    """Group call sites by (callee, constant signature) worth cloning."""
    options = ctx.options
    if not options.clone_enabled:
        return []
    groups: Dict[Tuple[str, Tuple[Tuple[int, int], ...]], CloneDecision] = {}
    total_sites: Dict[str, int] = {}
    for caller in callers:
        view = ctx.views.get(caller.name)
        for block_label, index, callee_name in caller.call_sites():
            if callee_name == caller.name or callee_name == ENTRY_NAME:
                continue
            total_sites[callee_name] = total_sites.get(callee_name, 0) + 1
            callee = resolve(callee_name)
            if callee is None or callee.n_params == 0:
                continue
            if callee.instr_count() > options.clone_callee_max_instrs:
                continue
            bindings = _site_constant_bindings(caller, block_label, index)
            if len(bindings) < options.clone_min_const_args:
                continue
            key = (callee_name, bindings)
            weight = view.count(block_label) if view is not None else 0
            decision = groups.get(key)
            if decision is None:
                decision = CloneDecision(callee_name, bindings, [], 0)
                groups[key] = decision
            decision.sites.append((caller.name, block_label, index))
            decision.weight += weight
    # Cloning pays off only when call sites *disagree*: if one signature
    # covers every observed site of a callee, interprocedural constant
    # propagation already binds those parameters in place.
    worthwhile = [
        decision
        for decision in groups.values()
        if len(decision.sites) < total_sites.get(decision.callee, 0)
    ]
    # Deterministic order: heaviest first, then name/signature.
    return sorted(
        worthwhile,
        key=lambda d: (-d.weight, d.callee, d.bindings),
    )


def _clone_view(ctx: OptContext, origin: str, clone_name: str) -> None:
    """A clone inherits its origin's profile shape."""
    callee_view = ctx.views.get(origin)
    if callee_view is not None:
        ctx.views[clone_name] = ProfileView(
            clone_name,
            block_counts=callee_view.block_counts,
            edge_counts=callee_view.edge_counts,
            is_static_estimate=callee_view.is_static_estimate,
        )


def _retarget(resolve, decision: CloneDecision, clone_name: str) -> None:
    for caller_name, block_label, index in decision.sites:
        caller = resolve(caller_name)
        if caller is None:
            continue
        call = caller.block(block_label).instrs[index]
        if call.op is Opcode.CALL and call.sym == decision.callee:
            call.sym = clone_name
            caller.invalidate()


def apply_clones(
    ctx: OptContext,
    program: Program,
    decisions: List[CloneDecision],
    resolve: Callable[[str], Optional[Routine]],
    max_clones: int = 64,
) -> List[Routine]:
    """Create clone routines in a plain :class:`Program` and retarget
    their call sites (no NAIM loader involved)."""
    created: List[Routine] = []
    serial = 0
    for decision in decisions:
        if len(created) >= max_clones:
            break
        callee = resolve(decision.callee)
        if callee is None:
            continue
        module: Optional[Module] = program.modules.get(callee.module_name)
        if module is None:
            continue
        clone_name = "%s::cl%d" % (decision.callee, serial)
        serial += 1
        clone = make_clone(callee, decision.bindings, clone_name)
        module.add_routine(clone)
        created.append(clone)
        ctx.stats.bump("clone")
        _clone_view(ctx, decision.callee, clone_name)
        _retarget(resolve, decision, clone_name)
    if created:
        program.invalidate()
    return created


def run_cloning(
    unit: CmoUnit,
    ctx: OptContext,
    program: Program,
    selected: Set[str],
) -> List[str]:
    """Phase 3 over the loader: plan, create and register clones."""
    if not ctx.options.clone_enabled:
        return []

    def selected_callers():
        for name in unit.routine_names():
            if name in selected:
                routine = unit.routine(name)
                if routine is not None:
                    yield routine
                    unit.unload(name)

    decisions = plan_clones(ctx, selected_callers(), unit.routine)
    created: List[str] = []
    serial = 0
    for decision in decisions:
        if len(created) >= 64:
            break
        callee = unit.routine(decision.callee)
        if callee is None:
            continue
        module = program.modules.get(callee.module_name)
        if module is None:
            continue
        clone_name = "%s::cl%d" % (decision.callee, serial)
        serial += 1
        clone = make_clone(callee, decision.bindings, clone_name)
        # Register with program structures and the loader.
        unit.symtab_handles[module.name].get().add_routine(clone_name)
        ctx.symtab.define_routine(clone_name, module.name)
        unit.add_routine(clone)
        created.append(clone_name)
        ctx.stats.bump("clone")
        _clone_view(ctx, decision.callee, clone_name)
        # Clone's effects mirror the original's.
        if ctx.modref is not None:
            ctx.modref.info[clone_name] = ctx.modref.for_routine(
                decision.callee
            )
        _retarget(unit.routine, decision, clone_name)
    return created


# -- Inlining over bodies ----------------------------------------------------------


class MaterializingInlineEngine(InlineEngine):
    """The inline planner with a body-splicing executor."""

    def _execute_plan(
        self,
        caller: Routine,
        plan: List[InlineCandidate],
        program_budget: int,
    ) -> None:
        """Splice candidates in plan order (module-pair grouped).

        Only *original* caller blocks and continuation blocks are
        scanned for sites, never cloned callee bodies -- each planned
        candidate corresponds to one pre-existing call site.
        """
        options = self.ctx.options
        caller_view = self.ctx.view_for(caller)
        caller_limit = max(
            options.inline_caller_max_instrs,
            int(self._size_of(caller.name)
                * options.inline_routine_growth_factor),
        )
        scannable = {block.label for block in caller.blocks}

        for cand in plan:
            if (
                options.inline_operation_limit is not None
                and self.stats.performed >= options.inline_operation_limit
            ):
                self.stats.hit_operation_limit = True
                return
            callee = self.resolve(cand.callee)
            if callee is None:
                continue
            callee_size = callee.instr_count()
            if (
                caller.instr_count() + callee_size > caller_limit
                or self._program_size + callee_size > program_budget
            ):
                self.stats.rejected_growth += 1
                continue
            site = self._find_site(caller, cand.callee, scannable)
            if site is None:
                continue  # an earlier transform removed the call
            block_label, instr_index = site
            call = caller.block(block_label).instrs[instr_index]
            if len(call.args) != callee.n_params:
                # Mismatched interface (paper section 6.3): leave the call
                # for the runtime checker rather than splice garbage.
                continue
            cont_label = splice_call(
                caller,
                block_label,
                instr_index,
                callee,
                caller_view=caller_view,
                callee_view=self.ctx.views.get(callee.name),
                site_weight=cand.weight,
            )
            scannable.add(cont_label)
            if (
                options.inject_inline_bug_after is not None
                and self.stats.performed + 1
                == options.inject_inline_bug_after
            ):
                _inject_bug(caller, cont_label)
            self.stats.record(
                caller.module_name, callee.module_name,
                caller=caller.name, callee=callee.name,
            )
            self._set_size(caller.name, caller.instr_count())
        self._set_size(caller.name, caller.instr_count())


# -- Incremental reuse keys over post-inline bodies ------------------------------


def compute_module_keys(
    unit: CmoUnit,
    ctx: OptContext,
    selected: Set[str],
    clones: Set[str],
    options_fp: str,
) -> Tuple[Dict[str, str], Dict[str, ConsumedFacts]]:
    """Exact per-module reuse keys over post-inline program state.

    The scalar pipeline and LLO consume, per routine, the routine
    body, its profile view, ``ctx.modref`` / ``ctx.const_returns``
    facts about its callees, and ``ctx.readonly_globals`` plus global
    initializers for its referenced globals.  All of those are hashed
    here, so key equality implies identical downstream output.
    """
    routines_of: Dict[str, List[str]] = {}
    for name in unit.routine_names():
        routines_of.setdefault(unit.routine_module[name], []).append(name)

    keys: Dict[str, str] = {}
    consumed: Dict[str, ConsumedFacts] = {}
    in_unit = set(unit.routine_names())

    for module_name, names in routines_of.items():
        digest = hashlib.sha256()
        digest.update(("v%d|" % SUMMARY_FORMAT).encode("utf-8"))
        digest.update(options_fp.encode("utf-8"))
        digest.update(("|%s|" % module_name).encode("utf-8"))
        facts = ConsumedFacts(module_name)

        for name in names:
            routine = unit.routine(name)
            if routine is None:
                digest.update(("!%s;" % name).encode("utf-8"))
                continue
            optimized = name in selected or name in clones
            digest.update(
                ("r:%s/%d=%s+%s;" % (
                    name, int(optimized), routine_body_hash(routine),
                    view_fingerprint(ctx.views.get(name)),
                )).encode("utf-8")
            )
            facts.callees.update(routine.callees())
            facts.globals.update(routine.referenced_globals())
            unit.unload(name)

        # The interprocedural fact slice this module's passes can read.
        for callee in sorted(facts.callees):
            modref = (
                modref_fingerprint(ctx.modref.for_routine(callee))
                if ctx.modref is not None else "-"
            )
            digest.update(
                ("c:%s/%s/%r/%d;" % (
                    callee, modref, ctx.const_returns.get(callee),
                    int(callee in in_unit),
                )).encode("utf-8")
            )
        for global_name in sorted(facts.globals):
            readonly = global_name in ctx.readonly_globals
            if ctx.symtab.has_global(global_name):
                var = ctx.symtab.lookup_global(global_name)
                shape = "%d/%r" % (var.size, var.init)
            else:
                shape = "extern"
            digest.update(
                ("g:%s/%d/%s;" % (global_name, int(readonly), shape))
                .encode("utf-8")
            )

        keys[module_name] = digest.hexdigest()
        consumed[module_name] = facts
    return keys, consumed


# -- The driver ---------------------------------------------------------------------


def build_callgraph(unit: CmoUnit) -> CallGraph:
    """Rebuild the call graph by scanning every routine once."""
    graph = CallGraph()
    for name in unit.routine_names():
        graph.nodes[name] = CallGraphNode(name, unit.routine_module[name])
    for name in unit.routine_names():
        routine = unit.routine(name)
        if routine is None:
            continue
        node = graph.nodes[name]
        for block_label, index, callee in routine.call_sites():
            node.call_sites.append(
                CallSite(name, block_label, index, callee)
            )
            target = graph.nodes.get(callee)
            if target is not None and name not in target.caller_names:
                target.caller_names.append(name)
        unit.unload(name)
    return graph


def optimize_materialized(
    self: HighLevelOptimizer, selected_routines: Optional[Set[str]]
) -> HloResult:
    """The classic WPA: phases 0-4.5 over expanded bodies.

    Drop-in replacement for :meth:`HighLevelOptimizer._optimize_thin`;
    the result carries no plan, so phase 5 starts from bodies that
    already hold every whole-program mutation.
    """
    program = self.program
    options = self.options
    wpa_start = time.perf_counter()
    timings: Dict[str, float] = {}
    tick = wpa_start

    incr = self.incr_session

    # Phase 0: dead-function elimination on the whole-program view.
    removed: List[str] = []
    if options.dead_function_elim_enabled and not self.externally_callable:
        removal_log: Dict[str, List[str]] = {}
        removed = eliminate_dead_functions(program, removal_log=removal_log)
        if incr is not None and removal_log:
            incr.record_dfe(removal_log)
    tick = self._lap(timings, "wpa.dfe", tick)

    symtab = program.symtab
    loader = Loader(self.naim_config, symtab, self.accountant, self.repository)
    unit = CmoUnit(loader)
    ctx = OptContext(symtab, options)
    accountant = loader.accountant

    # Global (always-resident) objects are accounted directly.
    accountant.set_usage("global", "program_symtab",
                         program_symtab_bytes(symtab))
    callgraph = program.callgraph(rebuild=True)
    accountant.set_usage("global", "callgraph", callgraph_bytes(callgraph))

    # Phase 1: register + scan, one module at a time; each routine is
    # unloaded right after its scan (paper §5).
    direct: Dict[str, object] = {}
    callees: Dict[str, List[str]] = {}
    for module in program.module_list():
        unit.symtab_handles[module.name] = loader.register_symtab(
            module.symtab
        )
        for routine in module.routine_list():
            unit.add_routine(routine)
        for routine in module.routine_list():
            direct[routine.name] = direct_modref(routine)
            callees[routine.name] = routine.callees()
            ctx.views[routine.name] = self._initial_view(routine)
            unit.unload(routine.name)
        unit.symtab_handles[module.name].request_unload()
    ctx.modref = ModRefAnalysis.from_direct(direct, callees)
    accountant.mark("scanned")
    self._attach_view_weights(callgraph, ctx)
    tick = self._lap(timings, "wpa.callgraph", tick)

    all_names = unit.routine_names()
    if selected_routines is None:
        selected = set(all_names)
    else:
        selected = set(selected_routines) & set(all_names)

    # Phase 2: interprocedural constant facts.
    bound = publish_interprocedural_facts(
        ctx,
        all_names,
        unit.routine,
        symtab.all_global_names(),
        externally_callable=frozenset(self.externally_callable),
        externally_visible_globals=frozenset(self.externally_visible_globals),
    )
    for name in all_names:
        unit.unload(name)
    if incr is not None and bound:
        incr.record_ipcp_edges(bound, callgraph, unit.routine_module)
    accountant.mark("ipcp")
    tick = self._lap(timings, "wpa.ipcp", tick)

    # Phase 3: procedure cloning (selected callers only).
    clones = run_cloning(unit, ctx, program, selected)
    if clones:
        callgraph = build_callgraph(unit)
        self._attach_view_weights(callgraph, ctx)
        accountant.set_usage("global", "callgraph",
                             callgraph_bytes(callgraph))
    accountant.mark("cloned")
    tick = self._lap(timings, "wpa.clone", tick)

    # Phase 4: inlining over selected callers.
    def _pin(name: str) -> None:
        handle = unit.handle(name)
        if handle is not None:
            loader.pin(handle)

    def _release(name: str) -> None:
        handle = unit.handle(name)
        if handle is not None:
            loader.unpin(handle)
            loader.reaccount(handle)
            handle.request_unload()

    engine = MaterializingInlineEngine(
        ctx,
        callgraph,
        unit.routine,
        has_profiles=self.profile_db is not None,
        pin=_pin,
        release=_release,
    )
    inline_stats = engine.run(sorted(selected | set(clones)))
    accountant.mark("inlined")
    tick = self._lap(timings, "wpa.inline", tick)

    # Phase 4.5 (incremental only): reuse keys over post-inline bodies.
    reused_modules: Set[str] = set()
    if incr is not None:
        incr.record_inline_edges(inline_stats, unit.routine_module)
        keys, consumed = compute_module_keys(
            unit, ctx, selected, set(clones), incr.options_fp
        )
        incr.record_consumption(consumed, unit.routine_module, symtab)
        reused_modules = incr.decide_reuse(keys)
        accountant.mark("summarized")
        tick = self._lap(timings, "wpa.summarize", tick)

    result = HloResult(
        program=program,
        unit=unit,
        ctx=ctx,
        inline_stats=inline_stats,
        selected=selected,
        removed_functions=removed,
        clones=clones,
    )
    result.peak_bytes = accountant.peak
    result.wpa_peak_bytes = accountant.peak
    result.reused_modules = reused_modules
    result.phase_seconds.update(timings)
    result.phase_seconds["wpa"] = time.perf_counter() - wpa_start
    return result
