"""HLO transformation phases."""

from .branch_elim import BranchElimination
from .clone import CloneDecision, make_clone
from .constprop import ConstantPropagation
from .dce import DeadCodeElimination
from .dfe import eliminate_dead_functions, reachable_routines
from .inline import InlineEngine, InlineStats, splice_call
from .licm import LoopInvariantCodeMotion
from .memopt import MemoryForwarding
from .simplify import SimplifyCfg

__all__ = [
    "BranchElimination",
    "CloneDecision",
    "make_clone",
    "ConstantPropagation",
    "DeadCodeElimination",
    "eliminate_dead_functions",
    "reachable_routines",
    "InlineEngine",
    "InlineStats",
    "splice_call",
    "MemoryForwarding",
    "LoopInvariantCodeMotion",
    "SimplifyCfg",
]
