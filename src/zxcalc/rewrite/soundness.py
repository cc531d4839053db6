"""Empirical soundness checking: every rule, on random diagrams, preserves
the evaluated matrix exactly, its scalar factor included.

This is the arbiter for rule transcriptions: the rule shapes come from
figures, so each one is validated by applying every match found on a few
hundred randomized diagrams (with the rule's left-hand side embedded) and
comparing dense evaluations entry by entry, with no free scalar.  The
embedding does not always leave a match: its extra legs may be wired back
into the pattern itself.  Such samples, with no match, are counted as
``skipped``; an application whose diagram evaluates to within ``tol`` of
zero cannot show a wrong factor and is counted as ``vacuous``.  A failure's
repro is the sample's ``.zxg`` text, ``scalar`` line included, so it parses
back to the value that was checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from ..graph import Diagram, VertexType, serialize_zxg
from ..phase import Phase, Scalar
from ..semantics import DEFAULT_TOLERANCE, evaluate
from .rules import FORWARD, RewriteRule, get_rule

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


def _attach(d: Diagram, rng: random.Random, v: int, n_legs: int) -> None:
    """Wire ``n_legs`` fresh legs of v into the diagram or to new boundaries."""
    spiders = [w for w, t in d.types.items() if t.is_spider() and w != v]
    for _ in range(n_legs):
        if spiders and rng.random() < 0.5:
            d.add_edge(v, rng.choice(spiders))
        else:
            d.add_output(v)


def embed_lhs(name: str, direction: str, d: Diagram, rng: random.Random) -> None:
    """Insert one guaranteed left-hand-side instance of the rule into ``d``."""
    phases = _phase_pool(rng)
    pi = Phase.pi()
    zero = Phase.zero()
    if name == "S1" and direction == FORWARD:
        ty = rng.choice((Z, X))
        u = d.add_vertex(ty, rng.choice(phases))
        v = d.add_vertex(ty, rng.choice(phases))
        for _ in range(rng.randint(1, 2)):
            d.add_edge(u, v)
        _attach(d, rng, u, rng.randint(0, 2))
        _attach(d, rng, v, rng.randint(0, 2))
    elif name == "S1":  # backward: any spider will do
        v = d.add_vertex(rng.choice((Z, X)), rng.choice(phases))
        _attach(d, rng, v, rng.randint(1, 3))
    elif name == "S2a":
        v = d.add_vertex(rng.choice((Z, X)), zero)
        _attach(d, rng, v, 2)
    elif name == "S2b":
        v = d.add_vertex(rng.choice((Z, X)), rng.choice(phases))
        d.add_edge(v, v)
        _attach(d, rng, v, rng.randint(0, 2))
    elif name in ("B1", "K1", "A"):
        colour = rng.choice((Z, X))
        point_phase = zero if name == "B1" else pi
        spider_phase = zero if name in ("B1", "K1") else rng.choice(phases)
        p = d.add_vertex(colour, point_phase)
        s = d.add_vertex(colour.opposite, spider_phase)
        d.add_edge(p, s)
        _attach(d, rng, s, rng.randint(0, 3))
    elif name == "K2":
        colour = rng.choice((Z, X))
        x = d.add_vertex(colour, pi)
        s = d.add_vertex(colour.opposite, rng.choice(phases))
        d.add_edge(x, s)
        _attach(d, rng, x, 1)
        _attach(d, rng, s, rng.randint(0, 2))
    elif name == "B2" and direction == FORWARD:
        z = d.add_vertex(Z, zero)
        x = d.add_vertex(X, zero)
        d.add_edge(z, x)
        _attach(d, rng, z, 2)
        _attach(d, rng, x, 2)
    elif name == "B2":
        xs = [d.add_vertex(X, zero) for _ in range(2)]
        zs = [d.add_vertex(Z, zero) for _ in range(2)]
        for a in xs:
            for b in zs:
                d.add_edge(a, b)
        for v in xs + zs:
            _attach(d, rng, v, 1)
    elif name == "C" and direction == FORWARD:
        v = d.add_vertex(X, rng.choice(phases))
        _attach(d, rng, v, rng.randint(0, 3))
        if rng.random() < 0.3:
            d.add_edge(v, v)
    elif name == "C":
        v = d.add_vertex(Z, rng.choice(phases))
        for _ in range(rng.randint(1, 3)):
            h = d.add_vertex(VertexType.H)
            d.add_edge(v, h)
            _attach(d, rng, h, 1)
    elif name == "D1":
        colour = rng.choice((Z, X))
        p = d.add_vertex(colour, zero)
        q = d.add_vertex(colour.opposite, rng.choice(phases))
        d.add_edge(p, q)
    elif name == "D2":
        v = d.add_vertex(rng.choice((Z, X)), rng.choice((zero, Phase(1, 2))))
        if rng.random() < 0.6:
            d.add_edge(v, v)
        d.scalar *= Scalar(1)
    elif name == "E":
        centre_colour = rng.choice((Z, X))
        t = d.add_vertex(centre_colour, rng.choice((zero, pi)))
        for _ in range(2):
            p = d.add_vertex(centre_colour.opposite, pi)
            d.add_edge(t, p)
        _attach(d, rng, t, 1)
    elif name == "HOPF":
        u = d.add_vertex(Z, rng.choice(phases))
        v = d.add_vertex(X, rng.choice(phases))
        d.add_edge(u, v)
        d.add_edge(u, v)
        _attach(d, rng, u, rng.randint(0, 2))
        _attach(d, rng, v, rng.randint(0, 2))
    else:
        raise ValueError(f"no embedding for rule {name} ({direction})")
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
    skipped: int = 0  # samples with no match
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
