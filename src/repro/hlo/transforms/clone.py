"""Procedure cloning (named HLO transformation, paper §3).

When a call site passes literal constants but *other* sites disagree
(so plain interprocedural constant propagation cannot bind the
parameter), a specialized copy of the callee is created with the
constants materialized at its entry; the matching sites are retargeted
to the clone.  Follow-up constant propagation then specializes the
clone's body.

Clones are named ``<callee>::cl<N>``; they are module-static to the
callee's defining module.  Planning runs over routine summaries
(:func:`repro.hlo.thin.thin_plan_clones`); this module holds the
decision record and the body copy that the plan replay makes.
"""

from __future__ import annotations

from typing import List, Tuple

from ...ir.instructions import Instr, Opcode
from ...ir.routine import Routine


class CloneDecision:
    """One planned specialization."""

    __slots__ = ("callee", "bindings", "sites", "weight")

    def __init__(
        self,
        callee: str,
        bindings: Tuple[Tuple[int, int], ...],
        sites: List[Tuple[str, str, int]],
        weight: int,
    ) -> None:
        self.callee = callee
        #: ((param_index, constant), ...) sorted by param index.
        self.bindings = bindings
        #: (caller, block_label, instr_index) sites to retarget.
        self.sites = sites
        self.weight = weight

    def __repr__(self) -> str:
        return "<CloneDecision %s %r (%d sites, w=%d)>" % (
            self.callee,
            self.bindings,
            len(self.sites),
            self.weight,
        )


def make_clone(callee: Routine, bindings, clone_name: str) -> Routine:
    """Specialized copy of ``callee`` with constants bound at entry."""
    clone = callee.copy(new_name=clone_name)
    clone.exported = False
    clone.annotations["cloned_from"] = callee.name
    entry = clone.entry
    for offset, (param_index, value) in enumerate(bindings):
        entry.instrs.insert(
            offset, Instr(Opcode.CONST, dst=param_index, imm=value)
        )
    clone.invalidate()
    return clone
