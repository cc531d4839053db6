"""Bounded simplification strategies with replayable traces.

``safe`` applies only rewrites that strictly shrink the diagram
(vertex count + edge count), so it terminates on every input without the
step limit.  ``full`` additionally tries the commutation/bialgebra family
under the step limit; normalisation in that regime is not guaranteed to
halt, so hitting the limit flags the trace as truncated instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph import Diagram, serialize_zxg
from .rules import BACKWARD, FORWARD, Match, get_rule


@dataclass(frozen=True)
class TraceStep:
    rule: str
    summary: str
    snapshot: str  # .zxg text


@dataclass
class Trace:
    """A replayable step log; entry 0 is the start diagram."""

    steps: list[TraceStep] = field(default_factory=list)
    truncated: bool = False

    def record(self, rule: str, summary: str, d: Diagram) -> None:
        self.steps.append(TraceStep(rule, summary, serialize_zxg(d)))

    def __len__(self) -> int:
        # number of rewrite steps, excluding the start snapshot
        return max(0, len(self.steps) - 1)

    def rules_used(self) -> list[str]:
        return [s.rule for s in self.steps[1:]]

    def render(self) -> str:
        lines = []
        for n, step in enumerate(self.steps):
            if n == 0:
                lines.append("step 0: start")
            else:
                lines.append(f"step {n}: {step.summary}")
            lines.extend("  " + ln for ln in step.snapshot.splitlines())
        if self.truncated:
            lines.append("truncated: step limit reached")
        return "\n".join(lines) + "\n"


# priority order: cheap shrinking rules first, then the full extras;
# E outranks the pi-copies so supplementarity patterns collapse in one step
_SAFE_RULES = ("S2a", "S2b", "S1", "HOPF", "B1", "D1", "D2")
_FULL_EXTRA = (("E", FORWARD), ("K1", FORWARD), ("K2", FORWARD),
               ("B2", BACKWARD), ("C", BACKWARD))


def _safe_b1_filter(d: Diagram, m: Match) -> bool:
    """In the safe strategy B1 only fires when it shrinks the diagram:
    copying through a spider with more than two remaining legs grows it."""
    s = m["spider"]
    others = [e for e in d.incident(s) if m["point"] not in e]
    return len(others) <= 2


def simplify(
    d: Diagram,
    strategy: str = "safe",
    step_limit: int = 1000,
    strict_scalars: bool = False,
) -> tuple[Diagram, Trace]:
    """Repeatedly apply the first available rewrite until none fires.

    Each step tries the rules in priority order and applies the first match
    that holds, in candidate order, of the first rule that has one: the
    match ``rule.find_matches(d)[0]``, found without listing the others.
    Returns the simplified diagram and the full trace.  The result is always
    evaluate-equal to the input up to a scalar (exactly equal in strict
    scalar mode for the D-family).  A hit step limit returns the partial
    result with ``trace.truncated`` set rather than raising.
    """
    if strategy not in ("safe", "full"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if step_limit < 1:
        raise ValueError("step_limit must be positive")

    rules = [(name, get_rule(name, strict_scalars=strict_scalars)) for name in _SAFE_RULES]
    if strategy == "full":
        rules += [
            (name, get_rule(name, direction, strict_scalars=strict_scalars))
            for name, direction in _FULL_EXTRA
        ]

    trace = Trace()
    trace.record("start", "start", d)
    current = d
    for _ in range(step_limit):
        for name, rule in rules:
            matches = rule.iter_matches(current)
            if name == "B1" and strategy == "safe":
                matches = (m for m in matches if _safe_b1_filter(current, m))
            m = next(matches, None)
            if m is not None:
                current = rule.apply(current, m)
                trace.record(name, m.summary(), current)
                break
        else:
            return current, trace
    trace.truncated = True
    return current, trace
