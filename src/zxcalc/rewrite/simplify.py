"""Bounded simplification strategies with replayable traces.

``safe`` applies only rewrites that strictly shrink the diagram
(vertex count + edge count), so it terminates on every input without the
step limit.  ``full`` additionally tries the commutation/bialgebra family
under the step limit; normalisation in that regime is not guaranteed to
halt, so using up the limit with a match still left flags the trace as
truncated instead of raising.

A :class:`Trace` stores a copy of the start diagram and the log of the
matches taken, not a diagram per step.  ``render`` and ``steps`` replay the
log through ``rule.apply``, which re-checks every match; each costs one
``apply`` and one ``serialize_zxg`` per step, about as much again as the
run that made the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..graph import Diagram, serialize_zxg
from .rules import BACKWARD, FORWARD, Match, RewriteRule, get_rule


@dataclass(frozen=True)
class TraceStep:
    rule: str
    summary: str
    snapshot: str  # .zxg text


@dataclass
class Trace:
    """A start diagram, copied on construction, and a log of
    ``(name, rule, match)`` steps that ``replay``, ``steps`` and ``render``
    re-apply.  A step with no rule is a topology move: every vertex id moves
    past the diagram's ``_next_id``.  Replay is deterministic because ids
    come from a per-diagram counter; a step whose match no longer holds
    raises :class:`StaleMatchError`.
    """

    start: Diagram
    log: list[tuple[str, Optional[RewriteRule], Optional[Match]]] = field(default_factory=list)
    truncated: bool = False

    def __post_init__(self) -> None:
        self.start = self.start.copy()

    def replay(self) -> Iterator[tuple[str, str, Diagram]]:
        """Yield ``(name, summary, diagram)`` for the start and each step;
        the diagrams are the trace's own and must not be mutated."""
        d = self.start
        yield "start", "start", d
        for name, rule, m in self.log:
            if rule is None:
                d = d.relabeled({v: v + d._next_id for v in d.types})
                yield name, "T (topology: vertex relabeling)", d
            else:
                d = rule.apply(d, m)
                yield name, m.summary(), d

    @property
    def steps(self) -> list[TraceStep]:
        """Entry 0 is the start diagram; replays the whole log."""
        return [TraceStep(name, summary, serialize_zxg(d)) for name, summary, d in self.replay()]

    def __len__(self) -> int:
        return len(self.log)

    def rules_used(self) -> list[str]:
        return [name for name, _, _ in self.log]

    def render(self) -> str:
        lines = []
        for n, step in enumerate(self.steps):
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


def simplify(d: Diagram, strategy: str = "safe", step_limit: int = 1000) -> tuple[Diagram, Trace]:
    """Repeatedly apply the first available rewrite until none fires.

    Each step tries the rules in priority order and applies the first match
    that holds, in candidate order, of the first rule that has one: the
    match ``rule.find_matches(d)[0]``, found without listing the others.
    Returns the simplified diagram and its trace, the log of the matches
    taken (see :class:`Trace`).  The result evaluates exactly as the input
    does: each step multiplies its factor into the diagram's scalar.  When
    the step limit is used up and a match is still left, the partial result
    comes back with ``trace.truncated`` set rather than raising.
    """
    if strategy not in ("safe", "full"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if step_limit < 1:
        raise ValueError("step_limit must be positive")

    rules = [(name, get_rule(name)) for name in _SAFE_RULES]
    if strategy == "full":
        rules += [(name, get_rule(name, direction)) for name, direction in _FULL_EXTRA]

    def first_match(d: Diagram):
        for name, rule in rules:
            matches = rule.iter_matches(d)
            if name == "B1" and strategy == "safe":
                matches = (m for m in matches if _safe_b1_filter(d, m))
            m = next(matches, None)
            if m is not None:
                return name, rule, m

    trace = Trace(d)
    for _ in range(step_limit):
        step = first_match(d)
        if step is None:
            return d, trace
        d = step[1].apply(d, step[2])
        trace.log.append(step)
    trace.truncated = first_match(d) is not None
    return d, trace
