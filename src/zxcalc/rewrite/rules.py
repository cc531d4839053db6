"""The rewrite rule set as executable matchers and appliers.

Thirteen rules: S1 (spider fusion, bidirectional), S2a (identity removal),
S2b (self-loop removal, the graph residue of wire yanking), B1 (copy),
B2 (bialgebra, bidirectional), K1 (pi-copy), K2 (pi-commutation), C (colour
change, bidirectional), D1/D2 (closed pairs and free spiders into the scalar),
E (supplementarity), HOPF (the derived two-wire disconnection) and A (the
derived pi-absorption through a phased spider).

Every rule is sound exactly: for any match ``m`` on a valid diagram ``d``,
``evaluate(apply(d, m))`` equals ``evaluate(d)``, because each rewrite
multiplies into the diagram's :class:`~zxcalc.phase.Scalar` the nonzero
factor it removes.  This is enforced empirically by
:mod:`zxcalc.rewrite.soundness` rather than by construction: left-hand sides
are deliberately conservative and reject shapes (self-loops where they would
change the semantics, parallel-edge corner cases) that were not verified.

Each (rule, direction) pair is one class that names its match ``roles`` and
supplies four parts:

* ``candidates(d)`` enumerates possible matches in ascending order.  It may
  over-approximate (it prunes only by adjacency, neighbour counts, vertex
  order, whether a vertex is a spider and its colour), but it must never
  miss a match.  A :class:`Match` is built only for what passes those
  checks, read straight off the incidence map.  Rules anchored on a degree
  (S2a, the point copies, K2, B2, D1, E) or on self-loops (S2b, D2) start
  from the diagram's degree index and self-loop counts, and S1 and HOPF
  from its linked-pair index, so they visit only what can anchor a match,
  not every vertex;
* ``holds(d, m)`` is the single statement of the left-hand side.  Roles
  that the rule treats symmetrically are named in ascending vertex order,
  so a mirrored match does not hold;
* ``_rewrite(d, m)`` rewrites ``d`` in place, reading the phases it needs
  before it changes them, and multiplies ``d.scalar`` by the factor λ with
  before = λ · after;
* ``lhs(d, rng, phases)`` adds a bare instance of the left-hand side to
  ``d``, with phases from ``phases``, and returns the pattern vertex of
  each free leg.  Wired to fresh boundaries or to spiders outside it, the
  instance is a match; the soundness sampler embeds it so.

``iter_matches`` lazily yields the candidates that hold, so matches come
out deterministically, ascending in their vertex ids taken in the order of
``roles``; the first match is ``next(iter_matches(d))`` and costs only the
candidates before it.  Where the index a rule reads is empty (S1, S2a,
S2b, HOPF), ``iter_matches`` yields nothing at once; S1 and HOPF build and
check only their heap's top until asked for more.  ``apply``
never mutates its input: it raises :class:`StaleMatchError` unless the
match has this rule's name and roles and still holds, then returns a
rewritten copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Iterable, Iterator

from ..graph import _H, _X, _Z, Diagram, VertexType
from ..phase import Phase, Scalar

FORWARD = "forward"
BACKWARD = "backward"

_CLIFFORD_PI = (Phase.zero(), Phase.pi())
_SPIDERS = (_Z, _X)  # tested by identity: an Enum's hash is Python-level


class StaleMatchError(Exception):
    """The diagram changed since the match was found; it no longer applies."""


@dataclass(frozen=True)
class Match:
    """An occurrence of a rule's left-hand side.

    ``data`` is a sorted tuple of (role, value) pairs; values are vertex ids
    or, for variadic rules, tuples describing the leg partition.
    """

    rule: str
    data: tuple

    def __getitem__(self, key: str):
        for k, v in self.data:
            if k == key:
                return v
        raise KeyError(key)

    @property
    def vertex_ids(self) -> list[int]:
        return sorted({v for _, v in self.data if isinstance(v, int)})

    def summary(self) -> str:
        return f"{self.rule} at {self.vertex_ids}"


def _match(rule: str, **data) -> Match:
    return Match(rule, tuple(sorted(data.items())))


def _legs(d: Diagram, v: int) -> list[int]:
    """The far end of each edge at v, in insertion order; a self-loop gives v once."""
    return [w for e, w in d._inc[v].items() if e >= 0]


def _spider(d: Diagram, v: int) -> bool:
    return d.types.get(v) in _SPIDERS


def _others(d: Diagram, v: int) -> list[int]:
    """The distinct neighbours of v other than v itself, ascending."""
    return sorted(set(d._inc[v].values()).difference((v,)))


def _around(d: Diagram, degree: int) -> Iterator[tuple[int, list[int]]]:
    """Each spider of the given degree, ascending, with its distinct other
    neighbours, ascending.  The diagram's degree index lists the vertices of
    that degree, so no other vertex is visited."""
    types = d.types
    found = [v for v in d._of_degree(degree) if types[v].is_spider()]
    return ((v, _others(d, v)) for v in found)


def _linked_pairs(d: Diagram, same_colour: bool) -> Iterator[tuple[int, int]]:
    """The distinct spider pairs u < v joined by at least one edge, ascending,
    where v has u's colour (``same_colour``) or the opposite one, read off
    the diagram's linked-pair index: the least is the top of its heap, and
    only a second request sorts the rest."""
    heap = d._linked_heap(same_colour)
    if heap:
        first = heap[0]
        yield first
        yield from sorted(p for p, same in d._linked.items() if same is same_colour and p != first)


class RewriteRule:
    """Base class: a named, directed rewrite (see the module docstring)."""

    name: str = ""
    direction: str = FORWARD
    roles: tuple[str, ...] = ()

    def candidates(self, d: Diagram) -> Iterable[Match]:
        raise NotImplementedError

    def holds(self, d: Diagram, m: Match) -> bool:
        raise NotImplementedError

    def _rewrite(self, d: Diagram, m: Match) -> None:
        raise NotImplementedError

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        raise NotImplementedError

    def iter_matches(self, d: Diagram) -> Iterator[Match]:
        return (m for m in self.candidates(d) if self.holds(d, m))

    def apply(self, d: Diagram, m: Match) -> Diagram:
        if m.rule != self.name or {k for k, _ in m.data} != set(self.roles):
            raise StaleMatchError(f"{m.summary()} is not a match for {self!r}")
        if not self.holds(d, m):
            raise StaleMatchError(f"{m.summary()} no longer applies")
        out = d.copy()
        self._rewrite(out, m)
        return out

    def __repr__(self) -> str:
        return f"<rule {self.name} {self.direction}>"


# ----------------------------------------------------------------------
# S1: spider fusion


class _LinkedPairRule(RewriteRule):
    """A rule on two spiders u < v joined by an edge, same-coloured or not:
    its candidates are the diagram's linked pairs, ascending.  A match's
    data is ``(("u", u), ("v", v))``, so ``holds`` and ``_rewrite`` unpack
    it instead of looking each role up."""

    roles = ("u", "v")
    same_colour: bool

    def candidates(self, d: Diagram) -> Iterable[Match]:
        name = self.name
        return (Match(name, (("u", u), ("v", v))) for u, v in _linked_pairs(d, self.same_colour))

    def iter_matches(self, d: Diagram) -> Iterator[Match]:
        """The heap's top as the first candidate, checked at once; only a
        request past it sorts the other pairs."""
        heap = d._linked_heap(self.same_colour)
        if heap:
            u, v = heap[0]
            m = Match(self.name, (("u", u), ("v", v)))
            if self.holds(d, m):
                yield m
            yield from (m for m in islice(self.candidates(d), 1, None) if self.holds(d, m))


class FuseRule(_LinkedPairRule):
    """Adjacent same-colour spiders fuse; phases add, connecting edges vanish.

    ``_rewrite`` is :meth:`Diagram._fuse`: v's other legs are re-pointed
    onto u in place, so a fusion costs O(v's degree) and regrades u alone.
    """

    name = "S1"
    same_colour = True

    def holds(self, d: Diagram, m: Match) -> bool:
        (_, u), (_, v) = m.data
        ty = d.types.get(u)
        return (
            u < v
            and ty in _SPIDERS
            and d.types.get(v) is ty
            and d.edge_count(u, v) >= 1
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        ty = rng.choice((_Z, _X))
        u = d.add_vertex(ty, rng.choice(phases))
        v = d.add_vertex(ty, rng.choice(phases))
        for _ in range(rng.randint(1, 2)):
            d.add_edge(u, v)
        return [u] * rng.randint(0, 2) + [v] * rng.randint(0, 2)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        (_, u), (_, v) = m.data
        d._fuse(u, v)


class UnfuseRule(RewriteRule):
    """Split a spider in two (S1 read right to left).

    The match carries the legs that move to the fresh spider (as a tuple of
    (neighbour, count) pairs) and the phase the fresh spider takes with it.
    ``candidates`` enumerates a canonical bounded family: the empty split
    (detach the full phase as a fresh point) and every single-leg split.
    Replay scripts build richer matches with :func:`unfuse_match`.
    """

    name = "S1"
    direction = BACKWARD
    roles = ("vertex", "legs", "new_phase")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        for v in sorted(d.phases):  # the spiders
            yield unfuse_match(v, (), d.phases[v])
            for w in _others(d, v):
                yield unfuse_match(v, ((w, 1),), Phase.zero())

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return _spider(d, v) and all(
            w != v and d.edge_count(v, w) >= count for w, count in m["legs"]
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        return [d.add_vertex(rng.choice((_Z, _X)), rng.choice(phases))] * rng.randint(1, 3)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        moved: Phase = m["new_phase"]
        fresh = d.add_vertex(d.types[v], moved)
        d.phases[v] = d.phases[v] - moved
        for w, count in m["legs"]:
            for _ in range(count):
                d.remove_edge(v, w)
                d.add_edge(fresh, w)
        d.add_edge(v, fresh)


def unfuse_match(vertex: int, legs: tuple, new_phase: Phase) -> Match:
    """Build an explicit backward-S1 match (used by derivation scripts)."""
    return _match("S1", vertex=vertex, legs=tuple(legs), new_phase=new_phase)


# ----------------------------------------------------------------------
# S2a: identity removal; S2b: self-loop removal


class IdentityRule(RewriteRule):
    """A phase-0 spider with exactly two plain legs is just a wire."""

    name = "S2a"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        types = d.types
        return (_match(self.name, vertex=v) for v in d._of_degree(2) if types[v].is_spider())

    def iter_matches(self, d: Diagram) -> Iterator[Match]:
        return super().iter_matches(d) if d._has_degree(2) else iter(())

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return (
            _spider(d, v)
            and d.phases[v].is_zero()
            and d.degree(v) == 2
            and d.self_loops(v) == 0
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        return [d.add_vertex(rng.choice((_Z, _X)))] * 2

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        a, b = d.neighbors(v)
        d.remove_vertex(v)
        d.add_edge(a, b)


class LoopRule(RewriteRule):
    """Remove a plain self-loop from a spider (yanking a bent wire straight)."""

    name = "S2b"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, vertex=v) for v in d.looped())

    def iter_matches(self, d: Diagram) -> Iterator[Match]:
        return super().iter_matches(d) if d._loops else iter(())

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return _spider(d, v) and d.self_loops(v) >= 1

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        v = d.add_vertex(rng.choice((_Z, _X)), rng.choice(phases))
        d.add_edge(v, v)
        return [v] * rng.randint(0, 2)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        d.remove_edge(v, v)


# ----------------------------------------------------------------------
# B1 / K1 / A: copying a point through a spider
#
# All three share one mechanism: an arity-1 spider selects a single branch of
# the opposite-colour spider it is plugged into, which therefore explodes
# into one copy of the point per remaining leg.  B1 is the phase-0 copy
# through a phase-0 spider, K1 the pi-copy through a phase-0 spider, and A
# (a derived rule) the pi-copy through a spider of arbitrary phase a.  With k
# copies, the factor removed is sqrt(2)**(1 - k) * e^{ia} (a = 0 for B1, K1).


class _PointCopyRule(RewriteRule):
    point_phase: Phase
    spider_phase_zero: bool  # if False, any spider phase is admitted
    roles = ("point", "spider")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        types = d.types
        return (
            _match(self.name, point=p, spider=s)
            for p, (s,) in _around(d, 1)
            if types[s] is types[p].opposite
        )

    def holds(self, d: Diagram, m: Match) -> bool:
        p, s = m["point"], m["spider"]
        return (
            _spider(d, p)
            and _spider(d, s)
            and d.degree(p) == 1
            and d.phases[p] == self.point_phase
            and d.types[s] is d.types[p].opposite
            and d.edge_count(p, s) == 1
            and (not self.spider_phase_zero or d.phases[s].is_zero())
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        colour = rng.choice((_Z, _X))
        p = d.add_vertex(colour, self.point_phase)
        spider_phase = Phase.zero() if self.spider_phase_zero else rng.choice(phases)
        s = d.add_vertex(colour.opposite, spider_phase)
        d.add_edge(p, s)
        return [s] * rng.randint(0, 3)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        p, s = m["point"], m["spider"]
        colour = d.types[p]
        legs = [w for w in _legs(d, s) if w not in (p, s)]  # self-loops contribute nothing
        d.scalar *= Scalar(1 - len(legs), d.phases[s])
        d.remove_vertex(p)
        d.remove_vertex(s)
        for w in legs:
            q = d.add_vertex(colour, self.point_phase)
            d.add_edge(q, w)


class CopyRule(_PointCopyRule):
    name = "B1"
    point_phase = Phase.zero()
    spider_phase_zero = True


class PiCopyRule(_PointCopyRule):
    name = "K1"
    point_phase = Phase.pi()
    spider_phase_zero = True


class AbsorbRule(_PointCopyRule):
    name = "A"
    point_phase = Phase.pi()
    spider_phase_zero = False


# ----------------------------------------------------------------------
# K2: pi commutes through a phased spider, negating its phase


class PiCommuteRule(RewriteRule):
    """A degree-2 pi spider moves past an opposite-colour spider.

    The spider's phase flips sign and a fresh pi vertex appears on each of
    its remaining legs.  Matches with self-loops on the target spider, or
    with both legs of the pi vertex on the same spider, are rejected: those
    shapes were not verified.
    """

    name = "K2"
    roles = ("pi_vertex", "spider")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        for x, ends in _around(d, 2):
            colour = d.types[x].opposite
            for s in ends:
                if d.types[s] is colour:
                    yield _match(self.name, pi_vertex=x, spider=s)

    def holds(self, d: Diagram, m: Match) -> bool:
        x, s = m["pi_vertex"], m["spider"]
        # degree 2 with a single edge to s: no self-loop, other leg elsewhere
        return (
            _spider(d, x)
            and _spider(d, s)
            and d.phases[x].is_pi()
            and d.degree(x) == 2
            and d.edge_count(x, s) == 1
            and d.types[s] is d.types[x].opposite
            and d.self_loops(s) == 0
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        colour = rng.choice((_Z, _X))
        x = d.add_vertex(colour, Phase.pi())
        s = d.add_vertex(colour.opposite, rng.choice(phases))
        d.add_edge(x, s)
        return [x] + [s] * rng.randint(0, 2)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        x, s = m["pi_vertex"], m["spider"]
        colour = d.types[x]
        (w,) = [y for y in _legs(d, x) if y != s]
        other_legs = [y for y in _legs(d, s) if y != x]
        d.remove_vertex(x)
        d.scalar *= Scalar(0, d.phases[s])
        d.phases[s] = -d.phases[s]
        d.add_edge(w, s)
        for y in other_legs:
            d.remove_edge(s, y)
            fresh = d.add_vertex(colour, Phase.pi())
            d.add_edge(s, fresh)
            d.add_edge(fresh, y)


# ----------------------------------------------------------------------
# B2: the bialgebra square


def _corners(d: Diagram) -> dict[VertexType, dict[int, list[int]]]:
    """The spiders of degree 3 by colour, each with its distinct other
    neighbours, as in :func:`_around`."""
    out: dict[VertexType, dict[int, list[int]]] = {_Z: {}, _X: {}}
    for v, ends in _around(d, 3):
        out[d.types[v]][v] = ends
    return out


def _corner(d: Diagram, v: int, ty: VertexType) -> bool:
    """A phase-0 spider of colour ty with three plain legs."""
    return (
        _spider(d, v)
        and d.types[v] is ty
        and d.phases[v].is_zero()
        and d.degree(v) == 3
        and d.self_loops(v) == 0
    )


class BialgebraRule(RewriteRule):
    """Fig-style 2x2 bialgebra: a connected Z/X pair of degree 3 each
    rewrites to the complete bipartite square on four fresh spiders.
    """

    name = "B2"
    roles = ("z", "x")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        corners = _corners(d)
        xs = corners[_X]
        for z, others in corners[_Z].items():
            for x in others:
                if x in xs:
                    yield _match(self.name, z=z, x=x)

    def holds(self, d: Diagram, m: Match) -> bool:
        z, x = m["z"], m["x"]
        return (
            _corner(d, z, _Z)
            and _corner(d, x, _X)
            and d.edge_count(z, x) == 1
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        z, x = d.add_vertex(_Z), d.add_vertex(_X)
        d.add_edge(z, x)
        return [z, z, x, x]

    def _rewrite(self, d: Diagram, m: Match) -> None:
        z, x = m["z"], m["x"]
        z_legs = [y for y in _legs(d, z) if y != x]
        x_legs = [y for y in _legs(d, x) if y != z]
        d.scalar *= Scalar(1)
        d.remove_vertex(z)
        d.remove_vertex(x)
        xs = [d.add_vertex(_X, Phase.zero()) for _ in z_legs]
        zs = [d.add_vertex(_Z, Phase.zero()) for _ in x_legs]
        for fresh, w in list(zip(xs, z_legs)) + list(zip(zs, x_legs)):
            d.add_edge(fresh, w)
        for xf in xs:
            for zf in zs:
                d.add_edge(xf, zf)


class BialgebraBackwardRule(RewriteRule):
    """B2 read right to left: the square on x1, x2, z1, z2, each corner with
    one leg leaving it, folds back into a connected Z/X pair.
    """

    name = "B2"
    direction = BACKWARD
    roles = ("x1", "x2", "z1", "z2")

    def candidates(self, d: Diagram) -> list[Match]:
        corners = _corners(d)
        xs, zs = corners[_X], corners[_Z]
        out = []
        for x1, others in xs.items():
            for z1, z2 in combinations([z for z in others if z in zs], 2):
                for x2 in set(zs[z1]) & set(zs[z2]):
                    if x2 > x1 and x2 in xs:
                        out.append(_match(self.name, x1=x1, x2=x2, z1=z1, z2=z2))
        return sorted(out, key=lambda m: m.data)

    def holds(self, d: Diagram, m: Match) -> bool:
        x1, x2, z1, z2 = m["x1"], m["x2"], m["z1"], m["z2"]
        # with every x-z edge single, a corner's third leg stays inside the
        # square only as an x1-x2 or z1-z2 edge
        return (
            x1 < x2
            and z1 < z2
            and all(_corner(d, v, _X) for v in (x1, x2))
            and all(_corner(d, v, _Z) for v in (z1, z2))
            and all(d.edge_count(a, b) == 1 for a in (x1, x2) for b in (z1, z2))
            and d.edge_count(x1, x2) == 0
            and d.edge_count(z1, z2) == 0
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        xs = [d.add_vertex(_X) for _ in range(2)]
        zs = [d.add_vertex(_Z) for _ in range(2)]
        for a, b in product(xs, zs):
            d.add_edge(a, b)
        return xs + zs

    def _rewrite(self, d: Diagram, m: Match) -> None:
        x1, x2, z1, z2 = m["x1"], m["x2"], m["z1"], m["z2"]
        quad = {x1, x2, z1, z2}
        outer = {}
        for v in (x1, x2, z1, z2):
            (outer[v],) = [u for u in d.neighbors(v) if u not in quad]
        for v in quad:
            d.remove_vertex(v)
        d.scalar *= Scalar(-1)
        z = d.add_vertex(_Z, Phase.zero())
        x = d.add_vertex(_X, Phase.zero())
        d.add_edge(z, x)
        d.add_edge(z, outer[x1])
        d.add_edge(z, outer[x2])
        d.add_edge(x, outer[z1])
        d.add_edge(x, outer[z2])


# ----------------------------------------------------------------------
# C: colour change


class ColorChangeRule(RewriteRule):
    """X(a) equals Z(a) conjugated by a Hadamard on every leg.

    Forward turns an X spider into a Z spider with a fresh H on each plain
    edge (self-loops carry an H pair that cancels, so they stay untouched).
    """

    name = "C"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, vertex=v) for v in d.vertices() if d.types[v] is _X)

    def holds(self, d: Diagram, m: Match) -> bool:
        return d.types.get(m["vertex"]) is _X

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        v = d.add_vertex(_X, rng.choice(phases))
        if rng.random() < 0.3:
            d.add_edge(v, v)
        return [v] * rng.randint(0, 3)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        for w in [u for u in _legs(d, v) if u != v]:
            d.remove_edge(v, w)
            h = d.add_vertex(_H)
            d.add_edge(v, h)
            d.add_edge(h, w)
        d._retype(v, _Z)  # v now has no spider neighbour but itself


class ColorChangeBackwardRule(RewriteRule):
    """C read right to left: strip the H off every plain leg of a Z spider
    and flip its colour.  The match lists those H vertices in edge order.
    """

    name = "C"
    direction = BACKWARD
    roles = ("vertex", "hadamards")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        for v in d.vertices():
            if d.types[v] is not _Z:
                continue
            hs = tuple(w for w in _legs(d, v) if d.types[w] is _H)
            if hs:
                yield _match(self.name, vertex=v, hadamards=hs)

    def holds(self, d: Diagram, m: Match) -> bool:
        v, hs = m["vertex"], m["hadamards"]
        if d.types.get(v) is not _Z or not hs:
            return False
        legs = tuple(w for w in _legs(d, v) if w != v)
        # each H is joined to v once and its other leg leaves the match: an
        # H that loops back onto v, alone or through another of the H's, is
        # an unverified shape
        return legs == hs and all(
            d.types[h] is _H
            and d.edge_count(v, h) == 1
            and sum(u != v and u not in hs for u in d.neighbors(h)) == 1
            for h in hs
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        v = d.add_vertex(_Z, rng.choice(phases))
        hs = [d.add_vertex(_H) for _ in range(rng.randint(1, 3))]
        for h in hs:
            d.add_edge(v, h)
        return hs

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        for h in m["hadamards"]:
            (far,) = [u for u in d.neighbors(h) if u != v]
            d.remove_vertex(h)
            d.add_edge(v, far)
        d._retype(v, _X)


# ----------------------------------------------------------------------
# D1 / D2: scalar subdiagrams


class ScalarPairRule(RewriteRule):
    """An isolated point pair of opposite colours, one phase in {0, pi}.

    Its value is sqrt(2), times e^{ib} when that phase is pi and b is the
    other one: never zero.  The pair is deleted and its value multiplied
    into the diagram's scalar.
    """

    name = "D1"
    roles = ("p", "q")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        types = d.types
        return (
            _match(self.name, p=p, q=q)
            for p, (q,) in _around(d, 1)
            if p < q and types[q] is types[p].opposite and d.degree(q) == 1
        )

    def holds(self, d: Diagram, m: Match) -> bool:
        p, q = m["p"], m["q"]
        return (
            p < q
            and _spider(d, p)
            and _spider(d, q)
            and d.types[q] is d.types[p].opposite
            and d.degree(p) == 1
            and d.degree(q) == 1
            and d.edge_count(p, q) == 1
            and (d.phases[p] in _CLIFFORD_PI or d.phases[q] in _CLIFFORD_PI)
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        colour = rng.choice((_Z, _X))
        p = d.add_vertex(colour, rng.choice(_CLIFFORD_PI))
        d.add_edge(p, d.add_vertex(colour.opposite, rng.choice(phases)))
        return []

    def _rewrite(self, d: Diagram, m: Match) -> None:
        a, b = d.phases[m["p"]], d.phases[m["q"]]
        d.scalar *= Scalar(1, b if a.is_pi() else a if b.is_pi() else Phase.zero())
        d.remove_vertex(m["p"])
        d.remove_vertex(m["q"])


class ScalarLoopRule(RewriteRule):
    """Circles and free spiders: the remaining scalar subdiagrams.

    An isolated spider (only self-loops) has value 1 + e^{i a}; it is
    deleted and its value multiplied into the diagram's scalar.  The zero
    scalar (a = pi) is never touched: a diagram's scalar is never zero.
    """

    name = "D2"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        types = d.types
        bare = d._of_degree(0) + [v for v in d.looped() if d.degree(v) == 2 * d.self_loops(v)]
        return (_match(self.name, vertex=v) for v in sorted(bare) if types[v].is_spider())

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return (
            _spider(d, v)
            and d.degree(v) == 2 * d.self_loops(v)  # no plain legs
            and not d.phases[v].is_pi()
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        v = d.add_vertex(rng.choice((_Z, _X)), rng.choice([a for a in phases if not a.is_pi()]))
        if rng.random() < 0.6:
            d.add_edge(v, v)
        return []

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        d.scalar *= Scalar(nodes=(d.phases[v],))
        d.remove_vertex(v)


# ----------------------------------------------------------------------
# E: supplementarity


class SupplementarityRule(RewriteRule):
    """Two opposite-colour pi points on a degree-3 {0, pi} spider collapse.

    The spider and both points are consumed and a single pi point of the
    points' colour lands on the remaining wire; the factor removed is
    sqrt(2) * e^{ia} for the centre phase a.
    """

    name = "E"
    roles = ("center", "p1", "p2")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        for t, ends in _around(d, 3):
            colour = d.types[t].opposite
            points = [p for p in ends if d.types[p] is colour and d.degree(p) == 1]
            for p1, p2 in combinations(points, 2):
                yield _match(self.name, center=t, p1=p1, p2=p2)

    def holds(self, d: Diagram, m: Match) -> bool:
        t, p1, p2 = m["center"], m["p1"], m["p2"]
        if not (
            p1 < p2
            and _spider(d, t)
            and d.phases[t] in _CLIFFORD_PI
            and d.degree(t) == 3
            and d.self_loops(t) == 0
        ):
            return False
        colour = d.types[t].opposite
        return all(
            _spider(d, p)
            and d.types[p] is colour
            and d.phases[p].is_pi()
            and d.degree(p) == 1
            and d.edge_count(t, p) == 1
            for p in (p1, p2)
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        colour = rng.choice((_Z, _X))
        t = d.add_vertex(colour, rng.choice(_CLIFFORD_PI))
        for _ in range(2):
            d.add_edge(t, d.add_vertex(colour.opposite, Phase.pi()))
        return [t]

    def _rewrite(self, d: Diagram, m: Match) -> None:
        t, p1, p2 = m["center"], m["p1"], m["p2"]
        colour = d.types[t].opposite
        (rest,) = [w for w in _legs(d, t) if w not in (p1, p2)]
        d.scalar *= Scalar(1, d.phases[t])
        d.remove_vertex(p1)
        d.remove_vertex(p2)
        d.remove_vertex(t)
        fresh = d.add_vertex(colour, Phase.pi())
        d.add_edge(fresh, rest)


# ----------------------------------------------------------------------
# HOPF: the derived disconnection rule


class HopfRule(_LinkedPairRule):
    """A Z and an X spider joined by exactly two parallel edges disconnect."""

    name = "HOPF"
    same_colour = False

    def holds(self, d: Diagram, m: Match) -> bool:
        (_, u), (_, v) = m.data
        tu, tv = d.types.get(u), d.types.get(v)
        return (
            u < v
            and tu in _SPIDERS
            and tv in _SPIDERS
            and tv is not tu
            and d.edge_count(u, v) == 2
        )

    def lhs(self, d: Diagram, rng: random.Random, phases: list[Phase]) -> list[int]:
        colour = rng.choice((_Z, _X))
        u = d.add_vertex(colour, rng.choice(phases))
        v = d.add_vertex(colour.opposite, rng.choice(phases))
        d.add_edge(u, v)
        d.add_edge(u, v)
        return [u] * rng.randint(0, 2) + [v] * rng.randint(0, 2)

    def _rewrite(self, d: Diagram, m: Match) -> None:
        (_, u), (_, v) = m.data
        d.scalar *= Scalar(-2)
        d.remove_edge(u, v)
        d.remove_edge(u, v)


# ----------------------------------------------------------------------
# registry

_RULES: dict[tuple[str, str], type[RewriteRule]] = {
    (cls.name, cls.direction): cls
    for cls in (
        FuseRule,
        IdentityRule,
        LoopRule,
        CopyRule,
        BialgebraRule,
        PiCopyRule,
        PiCommuteRule,
        ColorChangeRule,
        ScalarPairRule,
        ScalarLoopRule,
        SupplementarityRule,
        HopfRule,
        AbsorbRule,
        UnfuseRule,
        BialgebraBackwardRule,
        ColorChangeBackwardRule,
    )
}

# every rule has a forward direction, listed first
RULE_NAMES = tuple(dict.fromkeys(name for name, _ in _RULES))


def get_rule(name: str, direction: str = FORWARD) -> RewriteRule:
    """Look up a rule instance by name and direction."""
    if name not in RULE_NAMES:
        raise ValueError(f"unknown rule {name!r}")
    if (name, direction) not in _RULES:
        raise ValueError(f"rule {name} has no {direction} direction")
    return _RULES[name, direction]()
