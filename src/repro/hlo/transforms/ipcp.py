"""Interprocedural constant propagation: shared lattice primitives.

Three whole-program facts are computed and published into the
:class:`OptContext` for the scalar passes to exploit:

* **read-only globals**: scalars no routine in the CMO set ever writes
  fold to their static initializers (requires mod/ref analysis with no
  unknown callees);
* **constant parameters**: when every call site of a routine passes the
  same literal constant for a parameter, the constant is materialized
  at the routine entry (valid because the linker sees every caller --
  the paper's whole-program premise; ``main`` is exempt since the OS
  calls it);
* **constant returns**: routines that provably return one literal value
  are recorded so callers can fold calls to pure ones.

The pass itself runs over routine summaries
(:func:`repro.hlo.thin.thin_publish_interprocedural_facts`); this
module holds the constness rule both it and the summary extractor
share.
"""

from __future__ import annotations

from typing import Optional

from ...ir.instructions import Opcode
from ...ir.routine import Routine

#: Lattice marker for "conflicting values observed".
_CONFLICT = object()


def _const_def_in_block(routine: Routine, block_label: str, upto: int,
                        reg: int) -> Optional[int]:
    """Value of ``reg`` at ``block[upto]`` if set by a CONST in-block."""
    value: Optional[int] = None
    for instr in routine.block(block_label).instrs[:upto]:
        if instr.dst == reg:
            value = instr.imm if instr.op is Opcode.CONST else None
    return value
