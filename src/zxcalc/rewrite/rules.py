"""The rewrite rule set as executable matchers and appliers.

Thirteen rules: S1 (spider fusion, bidirectional), S2a (identity removal),
S2b (self-loop removal, the graph residue of wire yanking), B1 (copy),
B2 (bialgebra, bidirectional), K1 (pi-copy), K2 (pi-commutation), C (colour
change, bidirectional), D1/D2 (scalar normalisation/deletion),
E (supplementarity), HOPF (the derived two-wire disconnection) and A (the
derived pi-absorption through a phased spider).

Every rule is sound up to a global scalar: for any match ``m`` on a valid
diagram ``d``, ``evaluate(apply(d, m))`` equals ``evaluate(d)`` up to a
nonzero complex factor.  This is enforced empirically by
:mod:`zxcalc.rewrite.soundness` rather than by construction: left-hand sides
are deliberately conservative and reject shapes (self-loops where they would
change the semantics, parallel-edge corner cases) that were not verified.

Each (rule, direction) pair is one class that names its match ``roles`` and
supplies three parts:

* ``candidates(d)`` enumerates possible matches in ascending order.  It may
  over-approximate (it prunes only by adjacency, neighbour counts, vertex
  order and whether a vertex is a spider), but it must never miss a match;
* ``holds(d, m)`` is the single statement of the left-hand side.  Roles
  that the rule treats symmetrically are named in ascending vertex order,
  so a mirrored match does not hold;
* ``_rewrite(d, m)`` rewrites ``d`` in place.

``find_matches`` keeps the candidates that hold, so matches come out
deterministically, ascending in their vertex ids taken in the order of
``roles``.  ``apply`` never mutates its input: it raises
:class:`StaleMatchError` unless the match has this rule's name and roles and
still holds, then returns a rewritten copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional

from ..graph import Diagram, VertexType
from ..phase import Phase

FORWARD = "forward"
BACKWARD = "backward"

_CLIFFORD_PI = (Phase.zero(), Phase.pi())


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
        ids = []
        for _, v in self.data:
            if isinstance(v, int):
                ids.append(v)
        return sorted(set(ids))

    def summary(self) -> str:
        return f"{self.rule} at {self.vertex_ids}"


def _match(rule: str, **data) -> Match:
    return Match(rule, tuple(sorted(data.items())))


def _other_end(edge: tuple[int, int], v: int) -> int:
    a, b = edge
    return b if a == v else a


def _spider(d: Diagram, v: int) -> bool:
    return v in d.types and d.types[v].is_spider()


def _edge_ends(d: Diagram) -> dict[int, list[int]]:
    """Every vertex's edge ends, in edge order, from one pass over the edges.

    A self-loop lists the vertex twice, so ``len`` is the degree.
    """
    ends: dict[int, list[int]] = {v: [] for v in d.types}
    for a, b in d.edges:
        ends[a].append(b)
        ends[b].append(a)
    return ends


def _around(d: Diagram, degree: int) -> Iterator[tuple[int, list[int]]]:
    """Each spider of the given degree, ascending, with its distinct other
    neighbours, ascending."""
    ends = _edge_ends(d)
    for v in d.vertices():
        if len(ends[v]) == degree and d.types[v].is_spider():
            yield v, sorted(set(ends[v]) - {v})


def _linked_pairs(d: Diagram) -> list[tuple[int, int]]:
    """The distinct vertex pairs u < v joined by at least one edge, ascending."""
    return sorted({(a, b) if a < b else (b, a) for a, b in d.edges if a != b})


class RewriteRule:
    """Base class: a named, directed rewrite (see the module docstring)."""

    name: str = ""
    direction: str = FORWARD
    roles: tuple[str, ...] = ()

    def __init__(self, strict_scalars: bool = False):
        self.strict_scalars = strict_scalars

    def candidates(self, d: Diagram) -> Iterable[Match]:
        raise NotImplementedError

    def holds(self, d: Diagram, m: Match) -> bool:
        raise NotImplementedError

    def _rewrite(self, d: Diagram, m: Match) -> None:
        raise NotImplementedError

    def find_matches(self, d: Diagram) -> list[Match]:
        return [m for m in self.candidates(d) if self.holds(d, m)]

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


class FuseRule(RewriteRule):
    """Adjacent same-colour spiders fuse; phases add, connecting edges vanish."""

    name = "S1"
    roles = ("u", "v")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, u=u, v=v) for u, v in _linked_pairs(d))

    def holds(self, d: Diagram, m: Match) -> bool:
        u, v = m["u"], m["v"]
        return (
            u < v
            and _spider(d, u)
            and _spider(d, v)
            and d.types[u] is d.types[v]
            and d.edge_count(u, v) >= 1
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        u, v = m["u"], m["v"]
        d.phases[u] = d.phases[u] + d.phases[v]
        for edge in d.incident(v):
            if u in edge and v in edge:
                continue  # connecting edges disappear
            w = _other_end(edge, v)
            if w == v:
                d.edges.append((u, u))  # self-loop moves over
            else:
                d.edges.append((u, w) if u <= w else (w, u))
        d.remove_vertex(v)


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
        ends = _edge_ends(d)
        for v in sorted(d.phases):  # the spiders
            yield unfuse_match(v, (), d.phases[v])
            for w in sorted(set(ends[v]) - {v}):
                yield unfuse_match(v, ((w, 1),), Phase.zero())

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return _spider(d, v) and all(
            w != v and d.edge_count(v, w) >= count for w, count in m["legs"]
        )

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
        return (_match(self.name, vertex=v) for v, _ in _around(d, 2))

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return (
            _spider(d, v)
            and d.phases[v].is_zero()
            and d.degree(v) == 2
            and d.self_loops(v) == 0
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        a, b = (_other_end(e, v) for e in d.incident(v))
        d.remove_vertex(v)
        d.edges.append((a, b) if a <= b else (b, a))


class LoopRule(RewriteRule):
    """Remove a plain self-loop from a spider (yanking a bent wire straight)."""

    name = "S2b"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        looped = sorted({a for a, b in d.edges if a == b})
        return (_match(self.name, vertex=v) for v in looped)

    def holds(self, d: Diagram, m: Match) -> bool:
        v = m["vertex"]
        return _spider(d, v) and d.self_loops(v) >= 1

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
# (a derived rule) the pi-copy through a spider of arbitrary phase, which
# only contributes an extra scalar.


class _PointCopyRule(RewriteRule):
    point_phase: Phase
    spider_phase_zero: bool  # if False, any spider phase is admitted
    roles = ("point", "spider")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, point=p, spider=s) for p, (s,) in _around(d, 1))

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

    def _rewrite(self, d: Diagram, m: Match) -> None:
        p, s = m["point"], m["spider"]
        colour = d.types[p]
        legs = [
            _other_end(e, s)
            for e in d.incident(s)
            if p not in e and _other_end(e, s) != s  # self-loops contribute nothing
        ]
        d.remove_vertex(p)
        d.remove_vertex(s)
        for w in legs:
            q = d.add_vertex(colour, self.point_phase)
            d.add_edge(q, w)
        if self.strict_scalars and not legs:
            # the closed point/spider pair is the scalar sqrt(2)
            d.add_vertex(VertexType.DIAMOND)


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
            for s in ends:
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

    def _rewrite(self, d: Diagram, m: Match) -> None:
        x, s = m["pi_vertex"], m["spider"]
        colour = d.types[x]
        (w,) = [_other_end(e, x) for e in d.incident(x) if s not in e]
        other_legs = [_other_end(e, s) for e in d.incident(s) if x not in e]
        d.remove_vertex(x)
        d.phases[s] = -d.phases[s]
        d.add_edge(w, s)
        for y in other_legs:
            d.remove_edge(s, y)
            fresh = d.add_vertex(colour, Phase.pi())
            d.add_edge(s, fresh)
            d.add_edge(fresh, y)


# ----------------------------------------------------------------------
# B2: the bialgebra square


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
        corners = dict(_around(d, 3))
        for z, others in corners.items():
            for x in others:
                if x in corners:
                    yield _match(self.name, z=z, x=x)

    def holds(self, d: Diagram, m: Match) -> bool:
        z, x = m["z"], m["x"]
        return (
            _corner(d, z, VertexType.Z)
            and _corner(d, x, VertexType.X)
            and d.edge_count(z, x) == 1
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        z, x = m["z"], m["x"]
        z_legs = [_other_end(e, z) for e in d.incident(z) if x not in e]
        x_legs = [_other_end(e, x) for e in d.incident(x) if z not in e]
        d.remove_vertex(z)
        d.remove_vertex(x)
        xs = [d.add_vertex(VertexType.X, Phase.zero()) for _ in z_legs]
        zs = [d.add_vertex(VertexType.Z, Phase.zero()) for _ in x_legs]
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
        corners = dict(_around(d, 3))
        out = []
        for x1, others in corners.items():
            for z1, z2 in combinations([z for z in others if z in corners], 2):
                for x2 in set(corners[z1]) & set(corners[z2]):
                    if x2 > x1 and x2 in corners:
                        out.append(_match(self.name, x1=x1, x2=x2, z1=z1, z2=z2))
        return sorted(out, key=lambda m: m.data)

    def holds(self, d: Diagram, m: Match) -> bool:
        x1, x2, z1, z2 = m["x1"], m["x2"], m["z1"], m["z2"]
        # with every x-z edge single, a corner's third leg stays inside the
        # square only as an x1-x2 or z1-z2 edge
        return (
            x1 < x2
            and z1 < z2
            and all(_corner(d, v, VertexType.X) for v in (x1, x2))
            and all(_corner(d, v, VertexType.Z) for v in (z1, z2))
            and all(d.edge_count(a, b) == 1 for a in (x1, x2) for b in (z1, z2))
            and d.edge_count(x1, x2) == 0
            and d.edge_count(z1, z2) == 0
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        x1, x2, z1, z2 = m["x1"], m["x2"], m["z1"], m["z2"]
        quad = {x1, x2, z1, z2}
        outer = {}
        for v in (x1, x2, z1, z2):
            (outer[v],) = [u for u in d.neighbors(v) if u not in quad]
        for v in quad:
            d.remove_vertex(v)
        z = d.add_vertex(VertexType.Z, Phase.zero())
        x = d.add_vertex(VertexType.X, Phase.zero())
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
        return (_match(self.name, vertex=v) for v in d.vertices())

    def holds(self, d: Diagram, m: Match) -> bool:
        return d.types.get(m["vertex"]) is VertexType.X

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        d.types[v] = VertexType.Z
        for e in [e for e in d.incident(v) if _other_end(e, v) != v]:
            w = _other_end(e, v)
            d.remove_edge(v, w)
            h = d.add_vertex(VertexType.H)
            d.add_edge(v, h)
            d.add_edge(h, w)


class ColorChangeBackwardRule(RewriteRule):
    """C read right to left: strip the H off every plain leg of a Z spider
    and flip its colour.  The match lists those H vertices in edge order.
    """

    name = "C"
    direction = BACKWARD
    roles = ("vertex", "hadamards")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        ends = _edge_ends(d)
        for v in d.vertices():
            hs = tuple(w for w in ends[v] if d.types[w] is VertexType.H)
            if hs:
                yield _match(self.name, vertex=v, hadamards=hs)

    def holds(self, d: Diagram, m: Match) -> bool:
        v, hs = m["vertex"], m["hadamards"]
        if d.types.get(v) is not VertexType.Z or not hs:
            return False
        legs = tuple(_other_end(e, v) for e in d.incident(v) if e != (v, v))
        # each H is joined to v once and its other leg leaves v: an H that
        # loops back onto v is an unverified shape
        return legs == hs and all(
            d.types[h] is VertexType.H
            and d.edge_count(v, h) == 1
            and sum(u != v for u in d.neighbors(h)) == 1
            for h in hs
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        v = m["vertex"]
        for h in m["hadamards"]:
            (far,) = [u for u in d.neighbors(h) if u != v]
            d.remove_vertex(h)
            d.add_edge(v, far)
        d.types[v] = VertexType.X


# ----------------------------------------------------------------------
# D1 / D2: scalar subdiagrams


class ScalarPairRule(RewriteRule):
    """An isolated point pair of opposite colours is a known scalar.

    With one phase exactly 0 the value is exactly sqrt(2): strict mode
    normalises the pair to a diamond.  In up-to-scalar mode any pair whose
    value is guaranteed nonzero (one phase in {0, pi}) is deleted.
    """

    name = "D1"
    roles = ("p", "q")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, p=p, q=q) for p, (q,) in _around(d, 1) if p < q)

    def holds(self, d: Diagram, m: Match) -> bool:
        p, q = m["p"], m["q"]
        if not (
            p < q
            and _spider(d, p)
            and _spider(d, q)
            and d.types[q] is d.types[p].opposite
            and d.degree(p) == 1
            and d.degree(q) == 1
            and d.edge_count(p, q) == 1
        ):
            return False
        if self.strict_scalars:
            return d.phases[p].is_zero() or d.phases[q].is_zero()
        return d.phases[p] in _CLIFFORD_PI or d.phases[q] in _CLIFFORD_PI

    def _rewrite(self, d: Diagram, m: Match) -> None:
        d.remove_vertex(m["p"])
        d.remove_vertex(m["q"])
        if self.strict_scalars:
            d.add_vertex(VertexType.DIAMOND)


class ScalarLoopRule(RewriteRule):
    """Circles, free spiders and diamonds: the remaining scalar subdiagrams.

    An isolated spider (only self-loops) has value 1 + e^{i a}; for a = 0
    that is 2 = sqrt(2)^2, so strict mode replaces it by two diamonds.
    In up-to-scalar mode any nonzero isolated scalar vertex (a != pi) and
    any lone diamond is simply deleted.  The zero scalar (a = pi) is never
    touched: deleting it would change the map, not just its normalisation.
    """

    name = "D2"
    roles = ("vertex",)

    def candidates(self, d: Diagram) -> Iterable[Match]:
        ends = _edge_ends(d)
        isolated = (v for v in d.vertices() if all(w == v for w in ends[v]))
        return (_match(self.name, vertex=v) for v in isolated)

    def holds(self, d: Diagram, m: Match) -> bool:
        return self._shape(d, m["vertex"]) is not None

    def _shape(self, d: Diagram, v: int) -> Optional[str]:
        if v not in d.types:
            return None
        ty = d.types[v]
        if ty is VertexType.DIAMOND:
            return None if self.strict_scalars else "diamond"
        if not ty.is_spider():
            return None
        if d.degree(v) != 2 * d.self_loops(v):
            return None  # has plain legs
        phase = d.phases[v]
        if self.strict_scalars:
            return "two" if phase.is_zero() else None
        return None if phase.is_pi() else "nonzero"

    def _rewrite(self, d: Diagram, m: Match) -> None:
        kind = self._shape(d, m["vertex"])
        d.remove_vertex(m["vertex"])
        if kind == "two":
            d.add_vertex(VertexType.DIAMOND)
            d.add_vertex(VertexType.DIAMOND)


# ----------------------------------------------------------------------
# E: supplementarity


class SupplementarityRule(RewriteRule):
    """Two opposite-colour pi points on a degree-3 {0, pi} spider collapse.

    The spider and both points are consumed and a single pi point of the
    points' colour lands on the remaining wire (value scaled by +-sqrt(2)).
    Both phase variants (centre phase 0 or pi) and both colour polarities
    are matched; all four were verified by the oracle.
    """

    name = "E"
    roles = ("center", "p1", "p2")

    def candidates(self, d: Diagram) -> Iterator[Match]:
        for t, ends in _around(d, 3):
            for p1, p2 in combinations(ends, 2):
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

    def _rewrite(self, d: Diagram, m: Match) -> None:
        t, p1, p2 = m["center"], m["p1"], m["p2"]
        colour = d.types[t].opposite
        (rest,) = [
            _other_end(e, t) for e in d.incident(t) if p1 not in e and p2 not in e
        ]
        d.remove_vertex(p1)
        d.remove_vertex(p2)
        d.remove_vertex(t)
        fresh = d.add_vertex(colour, Phase.pi())
        d.add_edge(fresh, rest)


# ----------------------------------------------------------------------
# HOPF: the derived disconnection rule


class HopfRule(RewriteRule):
    """A Z and an X spider joined by exactly two parallel edges disconnect."""

    name = "HOPF"
    roles = ("u", "v")

    def candidates(self, d: Diagram) -> Iterable[Match]:
        return (_match(self.name, u=u, v=v) for u, v in _linked_pairs(d))

    def holds(self, d: Diagram, m: Match) -> bool:
        u, v = m["u"], m["v"]
        return (
            u < v
            and _spider(d, u)
            and _spider(d, v)
            and d.types[v] is d.types[u].opposite
            and d.edge_count(u, v) == 2
        )

    def _rewrite(self, d: Diagram, m: Match) -> None:
        u, v = m["u"], m["v"]
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


def get_rule(name: str, direction: str = FORWARD, strict_scalars: bool = False) -> RewriteRule:
    """Look up a rule instance by name and direction."""
    if name not in RULE_NAMES:
        raise ValueError(f"unknown rule {name!r}")
    if (name, direction) not in _RULES:
        raise ValueError(f"rule {name} has no {direction} direction")
    return _RULES[name, direction](strict_scalars)
