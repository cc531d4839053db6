"""Sound graph rewriting: the executable rule set, strategies, and replays.

This package imports all four of its modules eagerly, and none of them
imports numpy, ``semantics`` or ``protocols`` at module level:
``soundness`` and ``derivations`` import those when called.  So ``import
zxcalc.rewrite`` loads no numpy, and it leaves every rewrite module in
``sys.modules``, where the benchmark's tracer (``bench/tracer.py``) looks
them up by name.
"""

from .rules import (
    FORWARD,
    BACKWARD,
    RULE_NAMES,
    Match,
    RewriteRule,
    StaleMatchError,
    get_rule,
)
from .simplify import Trace, TraceStep, simplify
from .soundness import SoundnessReport, check_soundness, random_diagram
from .derivations import DERIVATION_NAMES, ReplayError, replay_derivation

__all__ = [
    "FORWARD",
    "BACKWARD",
    "RULE_NAMES",
    "Match",
    "RewriteRule",
    "StaleMatchError",
    "get_rule",
    "Trace",
    "TraceStep",
    "simplify",
    "SoundnessReport",
    "check_soundness",
    "random_diagram",
    "DERIVATION_NAMES",
    "ReplayError",
    "replay_derivation",
]
