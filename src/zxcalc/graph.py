"""Open multigraphs for ZX diagrams.

A :class:`Diagram` is an undirected multigraph whose vertices are Z/X spiders
(with an exact :class:`~zxcalc.phase.Phase`), Hadamard boxes or boundary
pins, together with ordered input/output interfaces and one exact, nonzero
:class:`~zxcalc.phase.Scalar` that multiplies the whole map.  Rewrites
multiply into ``scalar`` the factor they remove; ``copy`` and ``relabeled``
keep it, ``compose`` and ``tensor`` multiply the two.  The ``.zxg`` text
carries it as a ``scalar`` line, so parsing what ``serialize_zxg`` wrote
gives back the same scalar.  Self-loops and parallel edges are first-class:
several rewrite rules create or consume them.

Structural rules enforced here (and checked by :meth:`Diagram.validate`):

* H vertices have degree exactly 2, boundaries exactly 1 (a self-loop counts
  twice towards the degree);
* every interface entry is a boundary vertex and appears in exactly one of
  the two interface sequences;
* vertex ids are handed out by a monotone counter and never reused, so
  rewrite traces can name vertices stably.

Edges live in one record, per vertex: ``_inc[v]`` maps the id of each edge
at ``v`` to its other end, in insertion order (a self-loop ``e`` sits under
``e`` and ``~e``, once per end).  Edge ids come from a second monotone
counter and are never reused, so they recover the insertion order that
:attr:`Diagram.edges` reports and evaluation reads the edges in.  So
``degree`` costs O(1), ``incident`` and ``neighbors`` cost O(degree),
``edge_count`` O(the smaller degree), and all answer for an unknown vertex
as for an isolated one.

Three indexes sit beside the record.  ``_loops`` counts the self-loops of
each vertex that has one, so ``self_loops`` is one lookup and ``looped``
costs O(looped vertices).  For the rule matchers, ``_by_degree`` files
every vertex under its degree (``_of_degree``), and ``_linked`` files every
pair of spiders u < v joined by an edge as same-coloured or not
(``_linked_heap``).  Each of the two kinds of pair also sits in a heap, so
the least one is at the top; entries that went stale stay in the heap until
they reach the top, and a heap that is mostly stale is rebuilt.  These two
are built together in one pass over the record on the first query, not
before, so parsing pays nothing; ``copy`` and ``relabeled`` carry neither.
A vertex changes type only through ``_retype``, which refiles its pairs.

``add_vertex``, ``add_edge`` and the removals edit the maps and indexes they
touch in place, and ``copy`` copies every vertex's map; everything that
combines or transforms whole diagrams (``compose``, ``tensor``, ``plugged``,
rewrite application) returns a new value and leaves its operands untouched.
Spider fusion has its own in-place edit, ``_fuse(u, v)``: it deletes v and
re-points each leg of v that does not end at u onto u, under a fresh edge
id.  It leaves what ``remove_vertex(v)`` and a ``_link`` per moved leg
would, to the last id and index entry, but the neighbours never change
degree and u is refiled in the degree index once, not once per leg.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from heapq import heapify, heappop, heappush
from operator import countOf
from types import MappingProxyType
from typing import Optional

from .phase import Phase, Scalar

# evaluation's defaults and refusal live here, beside DiagramError, so that
# the CLI's parser and error handler read them without importing numpy
DEFAULT_MAX_QUBITS = 14
DEFAULT_TOLERANCE = 1e-9


class DiagramError(Exception):
    """Base class for structural errors on diagrams."""


class ResourceLimitError(Exception):
    """An evaluation would exceed the qubit cap or the floating-point range."""


class InvariantError(DiagramError):
    """A diagram invariant (degree cap, interface consistency, ...) failed."""


class ParseError(DiagramError):
    """A .zxg source line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class VertexType(Enum):
    Z = "Z"
    X = "X"
    H = "H"
    BOUNDARY = "B"

    def is_spider(self) -> bool:
        return self is _Z or self is _X

    @property
    def opposite(self) -> "VertexType":
        if self is _Z:
            return _X
        if self is _X:
            return _Z
        raise ValueError(f"{self} has no opposite colour")


# Enum hashes and class reads are slow: hot paths read the members from here
_Z, _X, _H, _BOUNDARY = VertexType.Z, VertexType.X, VertexType.H, VertexType.BOUNDARY

# the incidences of a vertex the diagram does not have
_NO_EDGES: MappingProxyType = MappingProxyType({})
_KINDS = {ty.value: ty for ty in VertexType}  # a .zxg kind token to its type
_ONE = Scalar()  # immutable, so every fresh diagram shares it

# The arity-1 spider realising each basis state/effect: z+/z- are X spiders
# of phase 0/pi (|0>, |1> up to scalar), x+/x- are Z spiders of phase 0/pi
# (|+>, |-> up to scalar).  The labels serve plugging and Born-rule measurements.
_PLUGS = {
    "z+": (VertexType.X, Phase.zero()),
    "z-": (VertexType.X, Phase.pi()),
    "x+": (VertexType.Z, Phase.zero()),
    "x-": (VertexType.Z, Phase.pi()),
}
PLUG_POINTS = tuple(_PLUGS)


def _heaps_of(linked: dict[tuple[int, int], bool]) -> tuple[list, list]:
    """The linked pairs as two heaps: opposite colours first, then the same."""
    heaps: tuple[list, list] = ([], [])
    for pair, same in linked.items():
        heaps[same].append(pair)
    for heap in heaps:
        heapify(heap)
    return heaps


class Diagram:
    """An open ZX multigraph with ordered interfaces."""

    def __init__(self):
        self.types: dict[int, VertexType] = {}
        self.phases: dict[int, Phase] = {}
        self._inc: dict[int, dict[int, int]] = {}
        self._loops: dict[int, int] = {}  # self-loops per vertex, for those with any
        # the degree and linked-pair indexes, built together on first use
        self._by_degree: Optional[defaultdict[int, set[int]]] = None
        self._linked: Optional[dict[tuple[int, int], bool]] = None
        self._pair_heaps: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self._next_id = 0
        self._next_edge = 0
        self.scalar = _ONE

    # ------------------------------------------------------------------
    # construction

    def add_vertex(self, ty: VertexType, phase: Optional[Phase] = None) -> int:
        if ty.is_spider():
            phase = phase if phase is not None else Phase.zero()
        elif phase is not None:
            raise InvariantError(f"{ty.value} vertices carry no phase")
        v = self._next_id
        self._next_id += 1
        self.types[v] = ty
        self._inc[v] = {}
        if self._by_degree is not None:
            self._by_degree[0].add(v)
        if phase is not None:
            self.phases[v] = phase
        return v

    def add_edge(self, a: int, b: int) -> None:
        ends = (a,) if a == b else (a, b)
        for v in ends:
            if v not in self.types:
                raise InvariantError(f"unknown vertex id {v}")
        gain = 2 if a == b else 1  # a self-loop adds 2 to its vertex
        for v in ends:  # the degree caps: H 2, boundary 1, spiders none
            ty = self.types[v]
            cap = 2 if ty is _H else 1 if ty is _BOUNDARY else None
            if cap is not None and len(self._inc[v]) + gain > cap:
                raise InvariantError(
                    f"vertex {v} ({self.types[v].value}) would exceed degree cap {cap}"
                )
        self._link(a, b)

    def _link(self, a: int, b: int) -> None:
        """Append the edge a-b under a fresh id, unchecked."""
        e = self._next_edge
        self._next_edge += 1
        inc = self._inc[a]
        inc[e] = b
        if a == b:
            inc[~e] = a
            self._loops[a] = self._loops.get(a, 0) + 1
            if self._by_degree is not None:
                self._regrade(a, len(inc), 2)
        else:
            self._inc[b][e] = a
            if self._by_degree is not None:
                self._regrade(a, len(inc), 1)
                self._regrade(b, len(self._inc[b]), 1)
                self._refile(a, b)

    def _regrade(self, v: int, degree: int, change: int) -> None:
        """Refile v, whose degree just moved by ``change`` to ``degree``."""
        by_degree = self._by_degree
        by_degree[degree - change].remove(v)
        by_degree[degree].add(v)

    def _refile(self, a: int, b: int) -> None:
        """Refile a pair a != b joined by an edge in the linked-pair index,
        after that edge was added or a type changed."""
        key = (a, b) if a < b else (b, a)
        ta, tb = self.types[a], self.types[b]
        if (ta is _Z or ta is _X) and (tb is _Z or tb is _X):
            same = ta is tb
            if self._linked.get(key) is not same:
                self._linked[key] = same
                heappush(self._pair_heaps[same], key)
        else:
            self._linked.pop(key, None)

    def add_input(self, attach_to: Optional[int] = None) -> int:
        """Add a boundary vertex, append it to the inputs, optionally wire it."""
        v = self.add_vertex(_BOUNDARY)
        self.inputs.append(v)
        if attach_to is not None:
            self.add_edge(v, attach_to)
        return v

    def add_output(self, attach_to: Optional[int] = None) -> int:
        v = self.add_vertex(_BOUNDARY)
        self.outputs.append(v)
        if attach_to is not None:
            self.add_edge(v, attach_to)
        return v

    def remove_vertex(self, v: int) -> None:
        """Remove a vertex together with all incident edges and interface entries."""
        if v not in self.types:
            raise InvariantError(f"unknown vertex id {v}")
        del self.types[v]
        self.phases.pop(v, None)
        self._loops.pop(v, None)
        inc = self._inc.pop(v)
        by_degree = self._by_degree
        if by_degree is not None:
            by_degree[len(inc)].remove(v)
        for e, w in inc.items():
            if w != v:
                other = self._inc[w]
                del other[e]
                if by_degree is not None:
                    self._regrade(w, len(other), -1)
                    self._linked.pop((v, w) if v < w else (w, v), None)
        if v in self.inputs:
            self.inputs = [w for w in self.inputs if w != v]
        if v in self.outputs:
            self.outputs = [w for w in self.outputs if w != v]

    def _fuse(self, u: int, v: int) -> None:
        """Fuse spider v into spider u in place: u takes the sum of the two
        phases, the edges between them vanish, and each other leg of v (a
        self-loop included) moves onto u under a fresh edge id, in v's edge
        order.  Every id, incidence order and index entry comes out as after
        ``remove_vertex(v)`` and then ``_link(u, w)`` for each moved leg, but
        the neighbours keep their degrees and u is regraded once.  No check
        is made: u and v must be distinct spiders (so on no interface)."""
        self.phases[u] = self.phases[u] + self.phases.pop(v)
        del self.types[v]
        loops = self._loops.pop(v, 0)
        if loops:
            self._loops[u] = self._loops.get(u, 0) + loops
        incs = self._inc
        inc_v, inc_u = incs.pop(v), incs[u]
        degree = len(inc_u)
        linked = self._linked
        if linked is not None:
            self._by_degree[len(inc_v)].remove(v)
        e = self._next_edge
        for old, w in inc_v.items():
            if w == u:
                del inc_u[old]
            elif w == v:
                if old >= 0:  # a self-loop sits under old and ~old; it moves once
                    inc_u[e] = inc_u[~e] = u
                    e += 1
            else:
                inc_w = incs[w]
                del inc_w[old]
                inc_u[e] = w
                inc_w[e] = u
                e += 1
                if linked is not None:
                    linked.pop((v, w) if v < w else (w, v), None)
                    self._refile(u, w)
        self._next_edge = e
        if linked is not None:
            linked.pop((u, v) if u < v else (v, u), None)
            self._regrade(u, len(inc_u), len(inc_u) - degree)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove one copy of the edge a-b, the one added first."""
        inc = self._inc.get(a, _NO_EDGES)
        e = next((e for e, w in inc.items() if w == b and e >= 0), None)
        if e is None:
            raise InvariantError(f"no edge {a}-{b}")
        del inc[e]
        if a == b:
            del inc[~e]
            loops = self._loops.pop(a) - 1
            if loops:
                self._loops[a] = loops
            if self._by_degree is not None:
                self._regrade(a, len(inc), -2)
        else:
            other = self._inc[b]
            del other[e]
            if self._by_degree is not None:
                self._regrade(a, len(inc), -1)
                self._regrade(b, len(other), -1)
                if b not in inc.values():
                    self._linked.pop((a, b) if a < b else (b, a), None)

    def _retype(self, v: int, ty: VertexType, phase: Optional[Phase] = None) -> None:
        """Give v the type ``ty``, and the phase ``phase`` if one is given,
        keeping its edges; every type change goes through here, so that the
        linked-pair index follows it.  No check is made."""
        self.types[v] = ty
        if phase is not None:
            self.phases[v] = phase
        if self._linked is not None:
            for w in set(self._inc[v].values()).difference((v,)):
                self._refile(v, w)

    # ------------------------------------------------------------------
    # queries

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge as ``(low, high)`` in insertion order: a fresh list."""
        ends = [
            (e, v, w) for v, inc in self._inc.items() for e, w in inc.items() if v <= w and e >= 0
        ]
        ends.sort()
        return [(v, w) for _, v, w in ends]

    def vertices(self) -> list[int]:
        return sorted(self.types)

    def num_vertices(self) -> int:
        return len(self.types)

    def num_edges(self) -> int:
        return sum(map(len, self._inc.values())) // 2

    def degree(self, v: int) -> int:
        return len(self._inc.get(v, _NO_EDGES))

    def incident(self, v: int) -> list[tuple[int, int]]:
        """All edges touching v, in insertion order (self-loops once)."""
        inc = self._inc.get(v, _NO_EDGES)
        return [(v, w) if v <= w else (w, v) for e, w in inc.items() if e >= 0]

    def neighbors(self, v: int) -> list[int]:
        """Neighbour list with multiplicity, self excluded, ascending."""
        return sorted(w for w in self._inc.get(v, _NO_EDGES).values() if w != v)

    def edge_count(self, a: int, b: int) -> int:
        """The edges joining a and b, counted at whichever has fewer."""
        if a == b:
            return self._loops.get(a, 0)
        inc_a, inc_b = self._inc.get(a, _NO_EDGES), self._inc.get(b, _NO_EDGES)
        if len(inc_b) < len(inc_a):
            return countOf(inc_b.values(), a)
        return countOf(inc_a.values(), b)

    def self_loops(self, v: int) -> int:
        return self._loops.get(v, 0)

    def looped(self) -> list[int]:
        """The vertices carrying a self-loop, ascending."""
        return sorted(self._loops)

    def _of_degree(self, k: int) -> list[int]:
        """The vertices of degree k, ascending."""
        if self._by_degree is None:
            self._index()
        return sorted(self._by_degree.get(k, ()))

    def _has_degree(self, k: int) -> bool:
        """Whether some vertex has degree k."""
        if self._by_degree is None:
            self._index()
        return bool(self._by_degree.get(k))

    def _linked_heap(self, same_colour: bool) -> list[tuple[int, int]]:
        """The heap of spider pairs u < v joined by an edge where v has u's
        colour (``same_colour``) or the opposite one.  Its stale tops are
        dropped first, so ``heap[0]``, if any, is the least such pair; the
        entries below may be stale or repeated."""
        if self._linked is None:
            self._index()
        linked = self._linked
        if len(self._pair_heaps[0]) + len(self._pair_heaps[1]) > 2 * len(linked) + 16:
            self._pair_heaps = _heaps_of(linked)  # mostly stale: rebuilt, amortised O(1)
        heap = self._pair_heaps[same_colour]
        while heap and linked.get(heap[0]) is not same_colour:
            heappop(heap)
        return heap

    def _index(self) -> None:
        """Build the degree and linked-pair indexes in one pass over the edges."""
        by_degree: defaultdict[int, set[int]] = defaultdict(set)
        linked: dict[tuple[int, int], bool] = {}
        types = self.types
        for v, inc in self._inc.items():
            by_degree[len(inc)].add(v)
            ty = types[v]
            if ty is _Z or ty is _X:
                for w in inc.values():
                    tw = types[w]
                    if w > v and (tw is _Z or tw is _X):
                        linked[v, w] = tw is ty
        self._by_degree, self._linked, self._pair_heaps = by_degree, linked, _heaps_of(linked)

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Raise :class:`InvariantError` unless every diagram invariant holds."""
        boundaries = 0
        for v, ty in self.types.items():
            if ty is _BOUNDARY:
                if len(self._inc[v]) != 1:
                    raise InvariantError(f"boundary vertex {v} must have degree 1")
                boundaries += 1
            elif ty is _H and len(self._inc[v]) != 2:
                raise InvariantError(f"H vertex {v} must have degree 2")
        interface = self.inputs + self.outputs
        for v in interface:
            ty = self.types.get(v)
            if ty is None:
                raise InvariantError(f"interface lists missing vertex {v}")
            if ty is not _BOUNDARY:
                raise InvariantError(f"interface vertex {v} is not a boundary")
        if len(set(interface)) != len(interface):
            raise InvariantError("a boundary vertex appears twice in the interface")
        if boundaries != len(interface):  # the interface holds only distinct boundaries
            raise InvariantError("every boundary vertex must appear in the interface")

    # ------------------------------------------------------------------
    # copying and relabelling

    def copy(self) -> "Diagram":
        d = Diagram()
        d.types = dict(self.types)
        d.phases = dict(self.phases)
        d._inc = {v: inc.copy() for v, inc in self._inc.items()}
        d._loops = dict(self._loops)
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d._next_id = self._next_id
        d._next_edge = self._next_edge
        d.scalar = self.scalar
        return d

    def relabeled(self, mapping: dict[int, int]) -> "Diagram":
        """A copy with vertex ids renamed by ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise InvariantError("relabeling must be injective")
        d = Diagram()
        d.types = {mapping[v]: t for v, t in self.types.items()}
        d.phases = {mapping[v]: p for v, p in self.phases.items()}
        d._inc = {
            mapping[v]: {e: mapping[w] for e, w in inc.items()} for v, inc in self._inc.items()
        }
        d._loops = {mapping[v]: k for v, k in self._loops.items()}
        d.inputs = [mapping[v] for v in self.inputs]
        d.outputs = [mapping[v] for v in self.outputs]
        d._next_id = max(d.types, default=-1) + 1
        d._next_edge = self._next_edge
        d.scalar = self.scalar
        return d

    def _absorb(self, other: "Diagram") -> dict[int, int]:
        """Copy ``other``'s vertices, edges and scalar into self; return the id map."""
        self.scalar = self.scalar * other.scalar
        mapping: dict[int, int] = {}
        for v in other.vertices():
            ty = other.types[v]
            mapping[v] = self.add_vertex(ty, other.phases.get(v))
        # bypass add_edge: other is assumed valid, caps already satisfied
        for a, b in other.edges:
            self._link(mapping[a], mapping[b])
        return mapping

    # ------------------------------------------------------------------
    # composition

    def compose(self, second: "Diagram") -> "Diagram":
        """Sequential composition: feed this diagram's outputs into ``second``'s inputs.

        Output/input boundary pairs are deleted pairwise in interface order and
        the wires they terminated are joined.  When the two pins to be fused
        are directly connected the wire closes into a loop, which is kept as a
        phase-0 Z spider with a self-loop (the evaluator sums it to the
        scalar 2).
        """
        if len(self.outputs) != len(second.inputs):
            raise InvariantError(
                f"arity mismatch: {len(self.outputs)} outputs vs "
                f"{len(second.inputs)} inputs"
            )
        d = self.copy()
        mapping = d._absorb(second)
        d.outputs = []
        d.inputs = list(self.inputs)
        pairs = [(o, mapping[i]) for o, i in zip(self.outputs, second.inputs)]
        for o, i in pairs:
            if d.edge_count(o, i) > 0:
                a = b = d.add_vertex(VertexType.Z, Phase.zero())
            else:
                (a,), (b,) = d.neighbors(o), d.neighbors(i)
            d.remove_vertex(o)
            d.remove_vertex(i)
            d._link(a, b)
        d.outputs = [mapping[v] for v in second.outputs]
        return d

    def tensor(self, right: "Diagram") -> "Diagram":
        """Parallel composition: disjoint union, interfaces concatenated."""
        d = self.copy()
        mapping = d._absorb(right)
        d.inputs = list(self.inputs) + [mapping[v] for v in right.inputs]
        d.outputs = list(self.outputs) + [mapping[v] for v in right.outputs]
        return d

    def plugged(self, which: str, position: int, point: str) -> "Diagram":
        """Replace one interface pin by a basis state/effect spider.

        ``which`` is ``"input"`` or ``"output"``; ``point`` one of
        z+/z-/x+/x-.  The interface shrinks by one wire.
        """
        if which not in ("input", "output"):
            raise ValueError("which must be 'input' or 'output'")
        seq = self.inputs if which == "input" else self.outputs
        if not 0 <= position < len(seq):
            raise InvariantError(f"{which} index {position} out of range")
        if point not in _PLUGS:
            raise ValueError(f"unknown plug point {point!r}; expected one of {PLUG_POINTS}")
        ty, phase = _PLUGS[point]
        d = self.copy()
        v = seq[position]
        d._retype(v, ty, phase)
        if which == "input":
            d.inputs = [w for w in d.inputs if w != v]
        else:
            d.outputs = [w for w in d.outputs if w != v]
        return d

    def __repr__(self) -> str:
        return (
            f"Diagram({self.num_vertices()} vertices, {self.num_edges()} edges, "
            f"{len(self.inputs)}->{len(self.outputs)})"
        )


# ----------------------------------------------------------------------
# .zxg interchange format
#
# Line-based, '#' starts a comment, blank lines ignored:
#   node <id> Z <phase> | node <id> X <phase> | node <id> H | node <id> B
#   edge <id> <id>
#   inputs <id> ...
#   outputs <id> ...
#   scalar <power> <phase> [<node phase> ...]
# Phases are integers or fractions in units of pi ("1" = pi, "1/2" = pi/2).
# Each scalar line multiplies the Scalar it spells into the diagram's.  A node
# phase of pi (its factor 1 + e^{i pi} is 0) is refused, and so is a total
# whose float value overflows or underflows.  "node <id> D" is sugar for
# "scalar 1 0", the factor sqrt(2); it adds no vertex.


def parse_zxg(text: str) -> Diagram:
    """Parse .zxg source into a validated diagram.

    Vertices are numbered 0, 1, ... in the order of their ``node`` lines and
    edges take ids in the order of their ``edge`` lines, so parsing what
    :func:`serialize_zxg` wrote gives back the same diagram and value but
    not always the same float bits: see there.

    Raises :class:`ParseError` with the offending line number on syntax
    errors, and :class:`InvariantError` (naming the vertex) when the parsed
    graph breaks a structural invariant or its scalar leaves the float range.
    """
    d = Diagram()
    names: dict[str, int] = {}
    token_phase: dict[str, Phase] = {}  # one Phase per distinct token: they are immutable
    diamonds: set[str] = set()
    pending_edges: list[tuple[str, str, int]] = []
    pending_io: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        directive = parts[0]
        if directive == "node":
            if len(parts) < 3:
                raise ParseError("node needs an id and a kind", lineno)
            name, kind = parts[1], parts[2]
            if name in names or name in diamonds:
                raise ParseError(f"duplicate node id {name!r}", lineno)
            if kind in ("Z", "X"):
                if len(parts) != 4:
                    raise ParseError(f"{kind} node needs exactly one phase token", lineno)
                phase = token_phase.get(parts[3])
                if phase is None:
                    try:
                        phase = token_phase[parts[3]] = Phase.from_token(parts[3])
                    except (ValueError, ZeroDivisionError):
                        raise ParseError(f"bad phase token {parts[3]!r}", lineno) from None
                names[name] = d.add_vertex(_KINDS[kind], phase)
            elif kind in ("H", "B", "D"):
                if len(parts) != 3:
                    raise ParseError(f"{kind} node takes no phase", lineno)
                if kind == "D":
                    diamonds.add(name)
                    d.scalar *= Scalar(1)
                else:
                    names[name] = d.add_vertex(_KINDS[kind])
            else:
                raise ParseError(f"unknown node kind {kind!r}", lineno)
        elif directive == "edge":
            if len(parts) != 3:
                raise ParseError("edge needs exactly two ids", lineno)
            pending_edges.append((parts[1], parts[2], lineno))
        elif directive in ("inputs", "outputs"):
            for name in parts[1:]:
                pending_io.append((directive, name, lineno))
        elif directive == "scalar":
            try:
                power, *phases = parts[1:]
                phase, *nodes = map(Phase.from_token, phases)
                factor = Scalar(int(power), phase, tuple(nodes))
            except (ValueError, ZeroDivisionError):
                raise ParseError("scalar needs an integer power and phase tokens", lineno) from None
            if Phase.pi() in factor.nodes:
                raise ParseError("a scalar node of phase 1 (pi) has the factor 0", lineno)
            d.scalar *= factor  # the product sorts the nodes
        else:
            raise ParseError(f"unknown directive {directive!r}", lineno)

    for a, b, lineno in pending_edges:
        for name in (a, b):
            if name not in names:
                raise ParseError(f"edge references unknown node {name!r}", lineno)
        try:
            d.add_edge(names[a], names[b])
        except InvariantError as exc:
            raise InvariantError(f"line {lineno}: edge {a} {b}: {exc}") from None
    for which, name, lineno in pending_io:
        if name not in names:
            raise ParseError(f"{which} references unknown node {name!r}", lineno)
        (d.inputs if which == "inputs" else d.outputs).append(names[name])

    # re-check the structural invariants with source names in the messages
    listed = Counter(d.inputs + d.outputs)
    for name, v in names.items():
        ty = d.types[v]
        if ty is _H and d.degree(v) != 2:
            raise InvariantError(f"H node {name!r} must have degree 2, has {d.degree(v)}")
        if ty is _BOUNDARY:
            if d.degree(v) != 1:
                raise InvariantError(
                    f"boundary node {name!r} must have degree 1, has {d.degree(v)}"
                )
            if listed[v] != 1:
                raise InvariantError(
                    f"boundary node {name!r} must appear in exactly one of inputs/outputs"
                )
    try:
        in_range = 0 < abs(complex(d.scalar)) < float("inf")
    except OverflowError:
        in_range = False
    if not in_range:
        raise InvariantError("the scalar is out of floating-point range")
    d.validate()
    return d


def serialize_zxg(d: Diagram) -> str:
    """Render a diagram as canonical .zxg text (nodes and edges sorted); a
    scalar other than 1 comes first, as one ``scalar`` line.

    A round trip through :func:`parse_zxg` keeps the diagram up to vertex
    names and its value, but may move the last bits of ``evaluate``: the
    edges come back sorted and the vertices renumbered, and evaluation reads
    the edges in insertion order, so it sums in another order.  Across rule
    outputs and random samples this moved 95 of 7,511 diagrams, each within
    1e-12 relative."""
    lines = [] if d.scalar == _ONE else [_scalar_line(d.scalar)]
    for v in d.vertices():
        ty = d.types[v]
        if ty.is_spider():
            lines.append(f"node {v} {ty.value} {d.phases[v].token()}")
        else:
            lines.append(f"node {v} {ty.value}")
    for a, b in sorted(d.edges):
        lines.append(f"edge {a} {b}")
    if d.inputs:
        lines.append("inputs " + " ".join(str(v) for v in d.inputs))
    if d.outputs:
        lines.append("outputs " + " ".join(str(v) for v in d.outputs))
    return "\n".join(lines) + "\n"


def _scalar_line(s: Scalar) -> str:
    return " ".join(["scalar", str(s.power), *map(Phase.token, (s.phase, *s.nodes))])


def to_dot(d: Diagram) -> str:
    """Graphviz export: undirected graph, one node per vertex with kind/phase
    label; a scalar other than 1 is the graph's label, as its .zxg tokens."""
    lines = ["graph zx {"]
    if d.scalar != _ONE:
        lines.append(f'  label="{_scalar_line(d.scalar)}";')
    for v in d.vertices():
        ty = d.types[v]
        if ty is VertexType.Z or ty is VertexType.X:
            label = f"{ty.value}:{d.phases[v]}"
            color = "green" if ty is VertexType.Z else "red"
            attrs = f'label="{label}", shape=circle, style=filled, fillcolor={color}'
        elif ty is VertexType.H:
            attrs = 'label="H", shape=square, style=filled, fillcolor=yellow'
        else:
            if v in d.inputs:
                label = f"in {d.inputs.index(v)}"
            else:
                label = f"out {d.outputs.index(v)}"
            attrs = f'label="{label}", shape=box'
        lines.append(f"  {v} [{attrs}];")
    for a, b in sorted(d.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
