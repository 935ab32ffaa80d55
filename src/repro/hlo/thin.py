"""Summary-only whole-program analysis (the thin link).

The driver's phases 0-4.5 never touch an expanded routine body: every
cross-module decision -- dead-function elimination, IPCP seeds,
cloning candidates, the inline plan -- is computed from the enriched
:class:`~repro.incr.summary.RoutineFacts` graph, and the body
mutations those decisions imply are recorded in a :class:`WpaPlan`.
The plan is *replayed* against real bodies at the start of phase 5
(serially, or inside each partition worker).  Images are
byte-identical to a WPA that walks and mutates expanded bodies (the
test oracle ``tests/oracles/materialize_wpa.py``): the decisions are
the same (each simulation mirrors its transform's exact acceptance
tests and size arithmetic), and the replay inserts the same entry
CONSTs and runs the same ``make_clone`` and ``splice_call``.

The payoff is the paper's Figure 4 claim pushed to its limit: WPA time
and peak modeled memory scale with the summary graph, so the
coordinator can run 10-50x larger programs without its memory moving.

Size arithmetic (exact, not estimated): splicing callee C into a call
site grows the caller by::

    n_params(C) + instrs(C) - probes(C) + (rets(C) if call has a dst)

because the splice adds one MOV per parameter plus a JMP (replacing
the CALL, net +n_params), copies the body minus PROBEs, and rewrites
each RET into a JMP plus -- only when the call assigns a result -- one
MOV/CONST.  ``probes`` and ``rets`` are invariant under C's own prior
inlining (spliced-in bodies arrive probe-free with RETs already
rewritten), so the recurrence stays exact as bodies grow.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..incr.summary import (
    RoutineFacts,
    apply_entry_bindings,
    facts_constant_return,
    modref_fingerprint,
    view_fingerprint,
)
from ..ir.callgraph import CallGraph, CallGraphNode, CallSite
from ..ir.instructions import Instr, Opcode
from ..ir.program import ENTRY_NAME
from .passes import OptContext
from .profile_view import ProfileView
from .transforms.clone import CloneDecision, make_clone
from .transforms.inline import InlineEngine, _inject_bug, splice_call
from .transforms.ipcp import _CONFLICT


# -- The recorded plan ---------------------------------------------------------


class CloneOp:
    """One clone creation plus the site retargets that aim at it."""

    __slots__ = ("clone", "origin", "bindings", "retargets")

    def __init__(self, clone: str, origin: str,
                 bindings: Tuple[Tuple[int, int], ...],
                 retargets: List[Tuple[str, str, int]]) -> None:
        self.clone = clone
        self.origin = origin
        self.bindings = bindings
        #: (caller, block_label, instr_index) with post-IPCP indexes.
        self.retargets = retargets


class SpliceOp:
    """One inline splice; list position is the global ordinal."""

    __slots__ = ("caller", "callee", "weight")

    def __init__(self, caller: str, callee: str, weight: int) -> None:
        self.caller = caller
        self.callee = callee
        self.weight = weight


class WpaPlan:
    """Deterministic record of every body mutation thin WPA decided.

    Replay order is fixed: all IPCP entry bindings, then clone
    creations interleaved with their retargets (a later clone's origin
    may already have been retargeted), then splices in global ordinal
    order (grouped by caller, callees bottom-up -- so a callee's body
    is always final before it is spliced upward).
    """

    def __init__(self) -> None:
        #: [(routine, [(param_index, value), ...])] in apply order.
        self.bindings: List[Tuple[str, List[Tuple[int, int]]]] = []
        self.clones: List[CloneOp] = []
        self.splices: List[SpliceOp] = []

    def is_empty(self) -> bool:
        return not (self.bindings or self.clones or self.splices)

    # -- Wire form (travels in the partition context blob) ---------------------

    def to_dict(self) -> dict:
        return {
            "bindings": [
                [name, [[i, v] for i, v in binds]]
                for name, binds in self.bindings
            ],
            "clones": [
                [op.clone, op.origin,
                 [[i, v] for i, v in op.bindings],
                 [[caller, label, index]
                  for caller, label, index in op.retargets]]
                for op in self.clones
            ],
            "splices": [
                [op.caller, op.callee, op.weight] for op in self.splices
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "WpaPlan":
        plan = WpaPlan()
        plan.bindings = [
            (name, [(int(i), int(v)) for i, v in binds])
            for name, binds in data.get("bindings", [])
        ]
        plan.clones = [
            CloneOp(clone, origin,
                    tuple((int(i), int(v)) for i, v in bindings),
                    [(caller, label, int(index))
                     for caller, label, index in retargets])
            for clone, origin, bindings, retargets in data.get("clones", [])
        ]
        plan.splices = [
            SpliceOp(caller, callee, int(weight))
            for caller, callee, weight in data.get("splices", [])
        ]
        return plan

    def import_closure(self) -> Callable[[str], Set[str]]:
        """Returns need(routine): the callee bodies its replay touches.

        A splice needs the callee's body *and* whatever that callee's
        own replay needs (its body must be final first); a clone needs
        its origin's body plus its own splice needs; retargets need
        nothing (they rewrite an instruction in place).
        """
        splice_needs: Dict[str, List[str]] = {}
        for op in self.splices:
            splice_needs.setdefault(op.caller, []).append(op.callee)
        clone_origin = {op.clone: op.origin for op in self.clones}
        memo: Dict[str, Set[str]] = {}

        def need(name: str) -> Set[str]:
            cached = memo.get(name)
            if cached is not None:
                return cached
            result: Set[str] = set()
            memo[name] = result  # cycle guard (recursion never splices)
            origin = clone_origin.get(name)
            if origin is not None:
                result.add(origin)
                result |= need(origin)
            for callee in splice_needs.get(name, ()):
                result.add(callee)
                result |= need(callee)
            return result

        return need

    def imports_for(self, routines) -> List[str]:
        """Sorted import list for one partition's routine set."""
        local = set(routines)
        need = self.import_closure()
        imports: Set[str] = set()
        for name in routines:
            imports |= need(name)
        return sorted(imports - local)


# -- Thin stand-in bodies ------------------------------------------------------


class ThinBody:
    """A :class:`RoutineFacts` wearing the slice of the Routine
    interface the inline engine consumes."""

    __slots__ = ("facts",)

    def __init__(self, facts: RoutineFacts) -> None:
        self.facts = facts

    @property
    def name(self) -> str:
        return self.facts.name

    @property
    def module_name(self) -> str:
        return self.facts.module

    @property
    def n_params(self) -> int:
        return self.facts.n_params

    def instr_count(self) -> int:
        return self.facts.instr_count

    def find_site(self, callee: str):
        """First remaining site calling ``callee``.

        The facts site list *is* the flat scannable order: a real
        splice keeps earlier sites in place (head of the split block),
        preserves later ones (continuation), and contributes no
        scannable sites from the cloned body -- so dropping the
        consumed entry keeps both orders in lockstep.
        """
        for site in self.facts.sites:
            if site.callee == callee:
                return site
        return None

    def splice(self, site, callee: "ThinBody") -> None:
        """Consume one site and grow by the exact splice delta."""
        facts = callee.facts
        delta = facts.n_params + facts.instr_count - facts.probe_count
        if site.has_dst:
            delta += facts.ret_count
        self.facts.sites.remove(site)
        self.facts.instr_count += delta


class ThinInlineEngine(InlineEngine):
    """The inline engine's planner run against thin bodies.

    Planning (candidate filters, hot cutoff, module-pair scheduling,
    growth budgets) is inherited unchanged; only ``_execute_plan`` is
    overridden -- instead of splicing IR it consumes summary sites,
    advances the exact size recurrence, and appends the splice to the
    plan for later replay.
    """

    def __init__(self, ctx, callgraph, resolve, has_profiles,
                 plan: WpaPlan) -> None:
        super().__init__(ctx, callgraph, resolve, has_profiles)
        self.plan = plan

    def _execute_plan(self, caller, plan, program_budget) -> None:
        options = self.ctx.options
        caller_limit = max(
            options.inline_caller_max_instrs,
            int(self._size_of(caller.name)
                * options.inline_routine_growth_factor),
        )
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
            site = caller.find_site(cand.callee)
            if site is None:
                continue  # an earlier splice consumed the call
            if len(site.args) != callee.n_params:
                # Mismatched interface: the materializing engine leaves
                # the call in place without consuming the site.
                continue
            caller.splice(site, callee)
            self.plan.splices.append(
                SpliceOp(caller.name, cand.callee, cand.weight)
            )
            # inject_inline_bug_after needs no recording: replay derives
            # the injection point from the same global splice ordinal.
            self.stats.record(
                caller.module_name, callee.module_name,
                caller=caller.name, callee=cand.callee,
            )
            self._set_size(caller.name, caller.instr_count())
        self._set_size(caller.name, caller.instr_count())


# -- Facts-level simulations of the whole-program passes -----------------------


def thin_reachable(facts_by_name: Dict[str, RoutineFacts]) -> Optional[Set[str]]:
    """Routines reachable from ``main`` over summary call edges.

    Returns None for a library (no entry routine), mirroring the
    materializing DFE's keep-everything guard.
    """
    if ENTRY_NAME not in facts_by_name:
        return None
    seen: Set[str] = {ENTRY_NAME}
    stack = [ENTRY_NAME]
    while stack:
        for callee in facts_by_name[stack.pop()].callees():
            if callee in facts_by_name and callee not in seen:
                seen.add(callee)
                stack.append(callee)
    return seen


def build_thin_callgraph(
    names: List[str],
    facts_by_name: Dict[str, RoutineFacts],
) -> CallGraph:
    """The call graph, two-pass, from facts (same node and site order
    as :meth:`CmoUnit.build_callgraph` scanning real bodies)."""
    graph = CallGraph()
    for name in names:
        graph.nodes[name] = CallGraphNode(name, facts_by_name[name].module)
    for name in names:
        node = graph.nodes[name]
        for site in facts_by_name[name].sites:
            node.call_sites.append(
                CallSite(name, site.block_label, site.index, site.callee)
            )
            target = graph.nodes.get(site.callee)
            if target is not None and name not in target.caller_names:
                target.caller_names.append(name)
    return graph


def thin_publish_interprocedural_facts(
    ctx: OptContext,
    routine_names: List[str],
    facts_by_name: Dict[str, RoutineFacts],
    all_global_names,
    externally_callable: frozenset,
    externally_visible_globals: frozenset,
    plan: WpaPlan,
) -> Dict[str, int]:
    """IPCP over facts: publish readonly globals / const returns, decide
    entry bindings, record them in the plan, and mutate the facts the
    way ``apply_param_constants`` would mutate the bodies."""
    bound: Dict[str, int] = {}
    if not ctx.options.ipcp_enabled:
        return bound

    if ctx.options.readonly_global_promotion and ctx.modref is not None:
        ctx.readonly_globals = (
            ctx.modref.never_written_globals(all_global_names)
            - set(externally_visible_globals)
        )

    # Gather: the same lattice walk as gather_param_constants, with the
    # per-argument constness read from the site facts.
    slots_by: Dict[str, list] = {}
    for name in routine_names:
        caller = facts_by_name.get(name)
        if caller is None:
            continue
        for site in caller.sites:
            callee = facts_by_name.get(site.callee)
            if callee is None:
                continue
            slots = slots_by.setdefault(site.callee,
                                        [None] * callee.n_params)
            for param_index, (_reg, observed, _has_def) in enumerate(
                    site.args):
                if param_index >= len(slots):
                    continue
                current = slots[param_index]
                if observed is None:
                    slots[param_index] = _CONFLICT
                elif current is None:
                    slots[param_index] = observed
                elif current is not _CONFLICT and current != observed:
                    slots[param_index] = _CONFLICT
    param_facts = {
        name: [v if isinstance(v, int) else None for v in slots]
        for name, slots in slots_by.items()
    }

    # Apply: decide bindings per routine, in routine order.
    for name in routine_names:
        if name == ENTRY_NAME or name in externally_callable:
            continue
        constants = param_facts.get(name)
        if constants:
            facts = facts_by_name.get(name)
            if facts is None:
                continue
            binds = [
                (index, value)
                for index, value in enumerate(constants[:facts.n_params])
                if value is not None
            ]
            if binds:
                bound[name] = len(binds)
                ctx.stats.bump("ipcp_params", len(binds))
                plan.bindings.append((name, binds))
                apply_entry_bindings(facts, binds)

    # Constant returns, over the post-binding facts.
    for name in routine_names:
        facts = facts_by_name.get(name)
        if facts is None:
            continue
        value = facts_constant_return(facts)
        if value is not None:
            ctx.const_returns[name] = value
    return bound


def thin_plan_clones(
    ctx: OptContext,
    caller_order: List[str],
    facts_by_name: Dict[str, RoutineFacts],
) -> List[CloneDecision]:
    """``plan_clones`` over post-IPCP facts (same grouping, filters,
    weights and deterministic ordering)."""
    options = ctx.options
    if not options.clone_enabled:
        return []
    groups: Dict[Tuple[str, tuple], CloneDecision] = {}
    total_sites: Dict[str, int] = {}
    for caller_name in caller_order:
        caller = facts_by_name.get(caller_name)
        if caller is None:
            continue
        view = ctx.views.get(caller_name)
        for site in caller.sites:
            if site.callee == caller_name or site.callee == ENTRY_NAME:
                continue
            total_sites[site.callee] = total_sites.get(site.callee, 0) + 1
            callee = facts_by_name.get(site.callee)
            if callee is None or callee.n_params == 0:
                continue
            if callee.instr_count > options.clone_callee_max_instrs:
                continue
            bindings = tuple(
                (param_index, value)
                for param_index, (_reg, value, _hd) in enumerate(site.args)
                if value is not None
            )
            if len(bindings) < options.clone_min_const_args:
                continue
            key = (site.callee, bindings)
            weight = view.count(site.block_label) if view is not None else 0
            decision = groups.get(key)
            if decision is None:
                decision = CloneDecision(site.callee, bindings, [], 0)
                groups[key] = decision
            decision.sites.append(
                (caller_name, site.block_label, site.index)
            )
            decision.weight += weight
    worthwhile = [
        decision
        for decision in groups.values()
        if len(decision.sites) < total_sites.get(decision.callee, 0)
    ]
    return sorted(
        worthwhile,
        key=lambda d: (-d.weight, d.callee, d.bindings),
    )


def thin_apply_clones(
    ctx: OptContext,
    unit,
    program,
    decisions: List[CloneDecision],
    facts_by_name: Dict[str, RoutineFacts],
    plan: WpaPlan,
    max_clones: int = 64,
) -> List[str]:
    """Mirror the driver's clone application without bodies.

    Real side effects happen exactly as in materializing mode -- module
    and program symbol-table entries, profile-view and mod/ref copies,
    pass-stat bumps -- while the body work (copying the origin,
    retargeting call instructions) lands in the plan.  The clone's
    facts are copied from the origin's *current* facts, so retargets
    applied to the origin by earlier decisions in this loop are
    inherited, matching the materializing interleave.
    """
    created: List[str] = []
    serial = 0
    for decision in decisions:
        if len(created) >= max_clones:
            break
        callee = facts_by_name.get(decision.callee)
        if callee is None:
            continue
        module = program.modules.get(callee.module)
        if module is None:
            continue
        clone_name = "%s::cl%d" % (decision.callee, serial)
        serial += 1
        clone_facts = callee.copy(new_name=clone_name)
        clone_facts.exported = False
        apply_entry_bindings(clone_facts, list(decision.bindings))
        facts_by_name[clone_name] = clone_facts

        symtab_obj = unit.symtab_handles[module.name].get()
        symtab_obj.add_routine(clone_name)
        ctx.symtab.define_routine(clone_name, module.name)
        unit.symtab_handles[module.name].request_unload()
        # Placeholder handle: keeps the clone in the unit's canonical
        # name order; replay registers the real body in its place.
        unit.routine_handles[clone_name] = None
        unit.routine_module[clone_name] = module.name
        created.append(clone_name)
        ctx.stats.bump("clone")
        callee_view = ctx.views.get(decision.callee)
        if callee_view is not None:
            ctx.views[clone_name] = ProfileView(
                clone_name,
                block_counts=callee_view.block_counts,
                edge_counts=callee_view.edge_counts,
                is_static_estimate=callee_view.is_static_estimate,
            )
        clone_facts.view = ctx.views.get(clone_name)
        if ctx.modref is not None:
            ctx.modref.info[clone_name] = ctx.modref.for_routine(
                decision.callee
            )
        retargets: List[Tuple[str, str, int]] = []
        for caller_name, block_label, index in decision.sites:
            caller = facts_by_name.get(caller_name)
            if caller is None:
                continue
            for site in caller.sites:
                if (site.block_label == block_label
                        and site.index == index
                        and site.callee == decision.callee):
                    site.callee = clone_name
                    retargets.append((caller_name, block_label, index))
                    break
        plan.clones.append(
            CloneOp(clone_name, decision.callee, decision.bindings,
                    retargets)
        )
    return created


# -- Thin reuse keys (incremental, phase 4.5) ---------------------------------


def compute_thin_module_keys(
    unit,
    ctx,
    facts_by_name: Dict[str, RoutineFacts],
    orig_hashes: Dict[str, str],
    plan: WpaPlan,
    selected: Set[str],
    clones: Set[str],
    options_fp: str,
    summary_format: int,
):
    """Exact per-module reuse keys without post-inline bodies.

    Each routine gets an *evolution hash* E(r) covering everything that
    determines its post-replay body and profile view: the original body
    hash (or, for clones, the origin's evolution plus the creation
    point and bindings), IPCP bindings, retargets, ordered splices with
    the callee's own E, and the initial view; the module key also
    hashes the interprocedural fact slice its routines consume (callee
    mod/ref and constant returns, readonly globals and their
    initializers).  Keys carry a ``thin|`` prefix so they never match
    a key hashed from post-inline bodies (the test oracle's
    ``compute_module_keys``).  Returns ``(keys, consumed)``, with
    consumed callee/global sets computed by residual closure over the
    plan (spliced bodies contribute their own residual calls and
    globals).
    """
    from ..incr.summary import ConsumedFacts

    bindings_of = {name: binds for name, binds in plan.bindings}
    splices_of: Dict[str, List[SpliceOp]] = {}
    for op in plan.splices:
        splices_of.setdefault(op.caller, []).append(op)
    clone_ops = {op.clone: op for op in plan.clones}
    # Retargets on each caller, in plan order, with the global clone
    # sequence number (a clone's facts inherit only retargets recorded
    # before its creation).
    retargets_of: Dict[str, List[Tuple[int, str, int, str]]] = {}
    clone_seq: Dict[str, int] = {}
    for seq, op in enumerate(plan.clones):
        clone_seq[op.clone] = seq
        for caller, label, index in op.retargets:
            retargets_of.setdefault(caller, []).append(
                (seq, label, index, op.clone)
            )

    evo_memo: Dict[str, str] = {}

    def evolution(name: str) -> str:
        cached = evo_memo.get(name)
        if cached is not None:
            return cached
        digest = hashlib.sha256()
        clone_op = clone_ops.get(name)
        if clone_op is not None:
            digest.update(
                ("cl|%s|%s|%d|%r|" % (
                    clone_op.origin, evolution(clone_op.origin),
                    clone_seq[name], clone_op.bindings,
                )).encode("utf-8")
            )
        else:
            digest.update(
                ("o|%s|" % orig_hashes.get(name, "-")).encode("utf-8")
            )
        digest.update(
            ("b:%r;" % bindings_of.get(name, [])).encode("utf-8")
        )
        for seq, label, index, new_callee in retargets_of.get(name, ()):
            digest.update(
                ("t:%d/%s/%d=%s;" % (seq, label, index, new_callee))
                .encode("utf-8")
            )
        for op in splices_of.get(name, ()):
            digest.update(
                ("i:%s/%s/%d;" % (op.callee, evolution(op.callee),
                                  op.weight)).encode("utf-8")
            )
        facts = facts_by_name.get(name)
        digest.update(
            view_fingerprint(facts.view if facts is not None else None)
            .encode("utf-8")
        )
        value = digest.hexdigest()[:16]
        evo_memo[name] = value
        return value

    residual_memo: Dict[str, Tuple[Set[str], Set[str]]] = {}

    def residual(name: str) -> Tuple[Set[str], Set[str]]:
        cached = residual_memo.get(name)
        if cached is not None:
            return cached
        facts = facts_by_name[name]
        callees = {site.callee for site in facts.sites}
        globals_ = set(facts.referenced_globals)
        residual_memo[name] = (callees, globals_)  # cycle guard
        for op in splices_of.get(name, ()):
            sub_callees, sub_globals = residual(op.callee)
            callees |= sub_callees
            globals_ |= sub_globals
        residual_memo[name] = (callees, globals_)
        return residual_memo[name]

    routines_of: Dict[str, List[str]] = {}
    for name in unit.routine_names():
        routines_of.setdefault(unit.routine_module[name], []).append(name)
    in_unit = set(unit.routine_names())

    keys: Dict[str, str] = {}
    consumed: Dict[str, "ConsumedFacts"] = {}
    for module_name, names in routines_of.items():
        digest = hashlib.sha256()
        digest.update(("thin|v%d|" % summary_format).encode("utf-8"))
        digest.update(options_fp.encode("utf-8"))
        digest.update(("|%s|" % module_name).encode("utf-8"))
        facts = ConsumedFacts(module_name)
        for name in names:
            optimized = name in selected or name in clones
            digest.update(
                ("r:%s/%d=%s;" % (name, int(optimized), evolution(name)))
                .encode("utf-8")
            )
            sub_callees, sub_globals = residual(name)
            facts.callees.update(sub_callees)
            facts.globals.update(sub_globals)
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


# -- Replay --------------------------------------------------------------------


def replay_plan(
    plan: WpaPlan,
    scope: Set[str],
    resolve,
    views: Dict[str, ProfileView],
    options,
    adopt_clone,
    pin=None,
    release=None,
    unload=None,
) -> None:
    """Apply the recorded mutations to the real bodies in ``scope``.

    Serially ``scope`` is every unit routine; a partition worker passes
    its locals plus the partition's import list.  Determinism: replay
    applied to any scope closed under the plan's import relation
    produces, for each routine in scope, the exact body and view the
    materializing driver produces -- bindings and retargets are
    per-routine, and splices touch only the caller while reading a
    callee whose own replay (earlier in global order) has finished.

    ``adopt_clone(routine)`` must register a created clone body so a
    later ``resolve`` finds it; ``pin``/``release``/``unload`` are the
    loader hooks the materializing inline/IPCP phases use (optional).
    """
    pin = pin or (lambda name: None)
    release = release or (lambda name: None)
    unload = unload or (lambda name: None)

    # 1. IPCP entry bindings.
    for name, binds in plan.bindings:
        if name not in scope:
            continue
        routine = resolve(name)
        if routine is None:
            continue
        entry = routine.entry
        for offset, (param_index, value) in enumerate(binds):
            entry.instrs.insert(
                offset, Instr(Opcode.CONST, dst=param_index, imm=value)
            )
        routine.invalidate()
        unload(name)

    # 2. Clones and their retargets, interleaved in decision order.
    for op in plan.clones:
        if op.clone in scope:
            origin = resolve(op.origin)
            if origin is not None:
                adopt_clone(make_clone(origin, op.bindings, op.clone))
                unload(op.origin)
        for caller_name, block_label, index in op.retargets:
            if caller_name not in scope:
                continue
            caller = resolve(caller_name)
            if caller is None:
                continue
            call = caller.block(block_label).instrs[index]
            if call.op is Opcode.CALL and call.sym == op.origin:
                call.sym = op.clone
                caller.invalidate()

    # 3. Splices in global ordinal order.  The order is grouped by
    # caller (the engine executes one caller's plan at a time), so the
    # caller is pinned across its run of consecutive splices.
    scannable: Dict[str, set] = {}
    current: Optional[str] = None
    caller_obj = None
    try:
        for ordinal, op in enumerate(plan.splices):
            if op.caller not in scope:
                continue
            if op.caller != current:
                if current is not None:
                    release(current)
                caller_obj = resolve(op.caller)
                current = op.caller
                if caller_obj is None:
                    continue
                pin(current)
                scannable[current] = {
                    block.label for block in caller_obj.blocks
                }
            if caller_obj is None:
                continue
            callee = resolve(op.callee)
            if callee is None:
                continue
            site = InlineEngine._find_site(
                caller_obj, op.callee, scannable[current]
            )
            if site is None:
                continue
            block_label, instr_index = site
            caller_view = views.get(op.caller)
            if caller_view is None:
                caller_view = ProfileView.static_estimate(caller_obj)
                views[op.caller] = caller_view
            cont_label = splice_call(
                caller_obj,
                block_label,
                instr_index,
                callee,
                caller_view=caller_view,
                callee_view=views.get(op.callee),
                site_weight=op.weight,
            )
            scannable[current].add(cont_label)
            if (
                options.inject_inline_bug_after is not None
                and options.inject_inline_bug_after == ordinal + 1
            ):
                _inject_bug(caller_obj, cont_label)
            unload(op.callee)
    finally:
        if current is not None and caller_obj is not None:
            release(current)
