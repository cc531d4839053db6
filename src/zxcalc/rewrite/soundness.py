"""Empirical soundness checking: every rule, on random diagrams, preserves
the evaluated matrix exactly, its scalar factor included.

This is the arbiter for rule transcriptions: the rule shapes come from
figures, so each one is validated by applying every match found on a few
hundred randomized diagrams, each with an instance of the rule's ``lhs``
embedded, and comparing evaluations entry by entry, with no free scalar.  A
sample with no match is counted as ``skipped``: the rule's ``lhs`` and
``holds`` disagree.  An application whose diagram evaluates to within
``tol`` of zero cannot show a wrong factor and is counted as ``vacuous``.
A failure's repro is the sample's ``.zxg`` text, ``scalar`` line included,
so it parses back to the value that was checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

from ..graph import DEFAULT_TOLERANCE, Diagram, VertexType, serialize_zxg
from ..phase import Phase, Scalar
from .rules import RewriteRule, get_rule

Z, X = VertexType.Z, VertexType.X

_MATCHES_PER_SAMPLE = 4
_QUARTER_TURNS = (Phase(0), Phase(1, 2), Phase(1), Phase(3, 2))  # in every phase pool


def _phase_pool(rng: random.Random) -> list[Phase]:
    """The four pi/2 multiples plus one random rational multiple of pi."""
    return [*_QUARTER_TURNS, Phase(rng.randint(1, 23), rng.randint(1, 12))]


def random_diagram(rng: random.Random, max_vertices: int = 8, max_boundaries: int = 4) -> Diagram:
    """A random valid diagram: spiders with random wiring, a few H boxes,
    maybe a scalar sqrt(2), and up to ``max_boundaries`` interface pins."""
    phases = _phase_pool(rng)
    d = Diagram()
    n_spiders = rng.randint(1, max(1, max_vertices - 2))
    spiders = [
        d.add_vertex(rng.choice((Z, X)), rng.choice(phases)) for _ in range(n_spiders)
    ]
    for _ in range(rng.randint(0, n_spiders + 2)):
        a, b = rng.choice(spiders), rng.choice(spiders)
        d.add_edge(a, b)  # parallel edges and self-loops welcome
    budget = max_vertices - n_spiders
    if budget > 0 and rng.random() < 0.4:
        h = d.add_vertex(VertexType.H)
        d.add_edge(h, rng.choice(spiders))
        d.add_edge(h, rng.choice(spiders))
        budget -= 1
    if budget > 0 and rng.random() < 0.2:
        d.scalar *= Scalar(1)
    n_bound = rng.randint(0, max_boundaries)
    for k in range(n_bound):
        v = rng.choice(spiders)
        if rng.random() < 0.5:
            d.add_input(v)
        else:
            d.add_output(v)
    d.validate()
    return d


def embed_lhs(name: str, direction: str, d: Diagram, rng: random.Random) -> None:
    """Insert an instance of the rule's ``lhs`` into ``d``, each free leg wired
    to a fresh output or to a spider ``d`` held before, never into the instance."""
    spiders = [v for v, t in d.types.items() if t.is_spider()]
    for v in get_rule(name, direction).lhs(d, rng, _phase_pool(rng)):
        if spiders and rng.random() < 0.5:
            d.add_edge(v, rng.choice(spiders))
        else:
            d.add_output(v)
    d.validate()


@dataclass
class SoundnessReport:
    """Outcome of a randomized soundness run for one rule."""

    rule: str
    direction: str
    samples: int
    seed: int
    checks: int = 0
    vacuous: int = 0  # checks on a diagram that evaluates to within tol of zero
    skipped: int = 0  # samples with no match: lhs and holds disagree
    failures: list[tuple[str, str]] = field(default_factory=list)  # (summary, zxg)

    @property
    def passed(self) -> bool:
        return not self.failures and self.checks > 0

    def render(self) -> str:
        lines = [
            f"soundness {self.rule} ({self.direction}): "
            f"{self.checks} applications over {self.samples} samples, seed {self.seed}: "
            f"{len(self.failures)} failures, {self.vacuous} vacuous, {self.skipped} skipped"
        ]
        for summary, zxg in self.failures:
            lines.append(f"FAIL {summary}")
            lines.extend("  " + ln for ln in zxg.splitlines())
        return "\n".join(lines)


def check_soundness(
    rule: RewriteRule | str,
    samples: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOLERANCE,
) -> SoundnessReport:
    """Apply the first four matches of ``rule`` on each of ``samples`` random
    diagrams and compare evaluations entry by entry, within
    ``tol * max(1, max|before|)``.  Failures carry .zxg reproduction text."""
    import numpy as np  # at call time, so that importing zxcalc.rewrite loads no numpy

    from ..semantics import evaluate

    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(rule, str):
        rule = get_rule(rule)
    rng = random.Random(seed)
    report = SoundnessReport(rule.name, rule.direction, samples, seed)
    for _ in range(samples):
        d = random_diagram(rng, max_vertices=8, max_boundaries=4)
        embed_lhs(rule.name, rule.direction, d, rng)
        matches = list(islice(rule.iter_matches(d), _MATCHES_PER_SAMPLE))
        if not matches:
            report.skipped += 1
            continue
        before = evaluate(d)
        scale = float(np.abs(before).max())
        for m in matches:
            residual = float(np.abs(evaluate(rule.apply(d, m)) - before).max())
            report.checks += 1
            report.vacuous += scale <= tol
            if residual > tol * max(1.0, scale):
                failure = f"{m.summary()}: residual {residual:.3e}"
                report.failures.append((failure, serialize_zxg(d)))
    return report
