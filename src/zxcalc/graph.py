"""Open multigraphs for ZX diagrams.

A :class:`Diagram` is an undirected multigraph whose vertices are Z/X spiders
(with an exact :class:`~zxcalc.phase.Phase`), Hadamard boxes, boundary pins or
scalar diamonds, together with ordered input/output interfaces.  Self-loops
and parallel edges are first-class: several rewrite rules create or consume
them.

Structural rules enforced here (and checked by :meth:`Diagram.validate`):

* H vertices have degree exactly 2, boundaries exactly 1, diamonds 0
  (a self-loop counts twice towards the degree);
* every interface entry is a boundary vertex and appears in exactly one of
  the two interface sequences;
* vertex ids are handed out by a monotone counter and never reused, so
  rewrite traces can name vertices stably.

Construction methods (``add_vertex``, ``add_edge``) mutate in place;
everything that combines or transforms whole diagrams (``compose``,
``tensor``, ``plugged``, rewrite application) returns a new value and leaves
its operands untouched.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .phase import Phase


class DiagramError(Exception):
    """Base class for structural errors on diagrams."""


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
    DIAMOND = "D"

    def is_spider(self) -> bool:
        return self in (VertexType.Z, VertexType.X)

    @property
    def opposite(self) -> "VertexType":
        if self is VertexType.Z:
            return VertexType.X
        if self is VertexType.X:
            return VertexType.Z
        raise ValueError(f"{self} has no opposite colour")


# Maximum degree per vertex type; None means unbounded.
_DEGREE_CAP = {
    VertexType.H: 2,
    VertexType.BOUNDARY: 1,
    VertexType.DIAMOND: 0,
}

# Effect/state labels for plugging and Born-rule measurements.
PLUG_POINTS = ("z+", "z-", "x+", "x-")


def _plug_vertex(point: str) -> tuple[VertexType, Phase]:
    """The arity-1 spider realising a basis state/effect.

    z+/z- are X spiders of phase 0/pi (|0>, |1> up to scalar), x+/x- are
    Z spiders of phase 0/pi (|+>, |-> up to scalar).
    """
    if point == "z+":
        return VertexType.X, Phase.zero()
    if point == "z-":
        return VertexType.X, Phase.pi()
    if point == "x+":
        return VertexType.Z, Phase.zero()
    if point == "x-":
        return VertexType.Z, Phase.pi()
    raise ValueError(f"unknown plug point {point!r}; expected one of {PLUG_POINTS}")


class Diagram:
    """An open ZX multigraph with ordered interfaces."""

    def __init__(self):
        self.types: dict[int, VertexType] = {}
        self.phases: dict[int, Phase] = {}
        self.edges: list[tuple[int, int]] = []
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self._next_id = 0

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
        if phase is not None:
            self.phases[v] = phase
        return v

    def add_edge(self, a: int, b: int) -> None:
        for v in (a, b):
            if v not in self.types:
                raise InvariantError(f"unknown vertex id {v}")
        gain = {a: 1}
        gain[b] = gain.get(b, 0) + 1  # self-loop adds 2 to one vertex
        for v, extra in gain.items():
            cap = _DEGREE_CAP.get(self.types[v])
            if cap is not None and self.degree(v) + extra > cap:
                raise InvariantError(
                    f"vertex {v} ({self.types[v].value}) would exceed degree cap {cap}"
                )
        self.edges.append((a, b) if a <= b else (b, a))

    def add_input(self, attach_to: Optional[int] = None) -> int:
        """Add a boundary vertex, append it to the inputs, optionally wire it."""
        v = self.add_vertex(VertexType.BOUNDARY)
        self.inputs.append(v)
        if attach_to is not None:
            self.add_edge(v, attach_to)
        return v

    def add_output(self, attach_to: Optional[int] = None) -> int:
        v = self.add_vertex(VertexType.BOUNDARY)
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
        self.edges = [e for e in self.edges if v not in e]
        self.inputs = [w for w in self.inputs if w != v]
        self.outputs = [w for w in self.outputs if w != v]

    def remove_edge(self, a: int, b: int) -> None:
        """Remove one copy of the edge a-b."""
        key = (a, b) if a <= b else (b, a)
        try:
            self.edges.remove(key)
        except ValueError:
            raise InvariantError(f"no edge {a}-{b}") from None

    # ------------------------------------------------------------------
    # queries

    def vertices(self) -> list[int]:
        return sorted(self.types)

    def phase(self, v: int) -> Phase:
        return self.phases[v]

    def type(self, v: int) -> VertexType:
        return self.types[v]

    def num_vertices(self) -> int:
        return len(self.types)

    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b in self.edges)

    def incident(self, v: int) -> list[tuple[int, int]]:
        """All edges touching v, in insertion order (self-loops once)."""
        return [e for e in self.edges if v in e]

    def neighbors(self, v: int) -> list[int]:
        """Neighbour list with multiplicity, self excluded, ascending."""
        out = []
        for a, b in self.edges:
            if a == v and b != v:
                out.append(b)
            elif b == v and a != v:
                out.append(a)
        return sorted(out)

    def edge_count(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        return self.edges.count(key)

    def self_loops(self, v: int) -> int:
        return self.edges.count((v, v))

    def connected_component(self, v: int) -> set[int]:
        seen = {v}
        stack = [v]
        while stack:
            w = stack.pop()
            for n in set(self.neighbors(w)):
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return seen

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Raise :class:`InvariantError` unless every diagram invariant holds."""
        for a, b in self.edges:
            if a not in self.types or b not in self.types:
                raise InvariantError(f"edge {a}-{b} references a missing vertex")
        for v, ty in self.types.items():
            cap = _DEGREE_CAP.get(ty)
            if ty is VertexType.BOUNDARY:
                if self.degree(v) != 1:
                    raise InvariantError(f"boundary vertex {v} must have degree 1")
            elif ty is VertexType.H:
                if self.degree(v) != 2:
                    raise InvariantError(f"H vertex {v} must have degree 2")
            elif cap is not None and self.degree(v) > cap:
                raise InvariantError(f"vertex {v} exceeds degree cap {cap}")
        interface = self.inputs + self.outputs
        for v in interface:
            if v not in self.types:
                raise InvariantError(f"interface lists missing vertex {v}")
            if self.types[v] is not VertexType.BOUNDARY:
                raise InvariantError(f"interface vertex {v} is not a boundary")
        if len(set(interface)) != len(interface):
            raise InvariantError("a boundary vertex appears twice in the interface")
        boundary = {v for v, t in self.types.items() if t is VertexType.BOUNDARY}
        if boundary != set(interface):
            raise InvariantError("every boundary vertex must appear in the interface")

    # ------------------------------------------------------------------
    # copying and relabelling

    def copy(self) -> "Diagram":
        d = Diagram()
        d.types = dict(self.types)
        d.phases = dict(self.phases)
        d.edges = list(self.edges)
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d._next_id = self._next_id
        return d

    def relabeled(self, mapping: dict[int, int]) -> "Diagram":
        """A copy with vertex ids renamed by ``mapping`` (must be injective)."""
        if len(set(mapping.values())) != len(mapping):
            raise InvariantError("relabeling must be injective")
        d = Diagram()
        d.types = {mapping[v]: t for v, t in self.types.items()}
        d.phases = {mapping[v]: p for v, p in self.phases.items()}
        d.edges = [
            tuple(sorted((mapping[a], mapping[b]))) for a, b in self.edges  # type: ignore[misc]
        ]
        d.inputs = [mapping[v] for v in self.inputs]
        d.outputs = [mapping[v] for v in self.outputs]
        d._next_id = max(d.types, default=-1) + 1
        return d

    def _absorb(self, other: "Diagram") -> dict[int, int]:
        """Copy ``other``'s vertices/edges into self with fresh ids; return the id map."""
        mapping: dict[int, int] = {}
        for v in other.vertices():
            ty = other.types[v]
            mapping[v] = self.add_vertex(ty, other.phases.get(v))
        # bypass add_edge: other is assumed valid, caps already satisfied
        for a, b in other.edges:
            x, y = mapping[a], mapping[b]
            self.edges.append((x, y) if x <= y else (y, x))
        return mapping

    # ------------------------------------------------------------------
    # composition

    def compose(self, second: "Diagram") -> "Diagram":
        """Sequential composition: feed this diagram's outputs into ``second``'s inputs.

        Output/input boundary pairs are deleted pairwise in interface order and
        the wires they terminated are joined.  When the two pins to be fused
        are directly connected the wire closes into a loop, which is kept as a
        phase-0 Z spider with a self-loop (the evaluator contracts it to the
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
                loop = d.add_vertex(VertexType.Z, Phase.zero())
                d.remove_vertex(o)
                d.remove_vertex(i)
                d.edges.append((loop, loop))
                continue
            (a,) = [x if y == o else y for x, y in d.incident(o)]
            (b,) = [x if y == i else y for x, y in d.incident(i)]
            d.remove_vertex(o)
            d.remove_vertex(i)
            d.edges.append((a, b) if a <= b else (b, a))
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
        ty, phase = _plug_vertex(point)
        d = self.copy()
        v = seq[position]
        d.types[v] = ty
        d.phases[v] = phase
        if which == "input":
            d.inputs = [w for w in d.inputs if w != v]
        else:
            d.outputs = [w for w in d.outputs if w != v]
        return d

    # ------------------------------------------------------------------
    # isomorphism

    def _signature(self, v: int) -> tuple:
        ty = self.types[v]
        phase = self.phases.get(v)
        phase_key = (phase.num, phase.den) if phase is not None else (-1, 0)
        if v in self.inputs:
            io = ("i", self.inputs.index(v))
        elif v in self.outputs:
            io = ("o", self.outputs.index(v))
        else:
            io = ("", -1)
        return (ty.value, phase_key, self.degree(v), self.self_loops(v), io)

    def is_isomorphic(self, other: "Diagram") -> bool:
        """Kind/phase/interface-order preserving multigraph isomorphism.

        Backtracking with signature pruning; fine for the diagram sizes this
        engine works with (tens of vertices).
        """
        if (
            self.num_vertices() != other.num_vertices()
            or self.num_edges() != other.num_edges()
            or len(self.inputs) != len(other.inputs)
            or len(self.outputs) != len(other.outputs)
        ):
            return False
        mine = sorted(self._signature(v) for v in self.types)
        theirs = sorted(other._signature(v) for v in other.types)
        if mine != theirs:
            return False

        mapping: dict[int, int] = {}
        used: set[int] = set()
        # interface order is rigid, seed the mapping with it
        for a, b in zip(self.inputs + self.outputs, other.inputs + other.outputs):
            mapping[a] = b
            used.add(b)

        def consistent(v: int, w: int) -> bool:
            if self._signature(v) != other._signature(w):
                return False
            for u, img in mapping.items():
                if self.edge_count(v, u) != other.edge_count(w, img):
                    return False
            return True

        for a, b in list(mapping.items()):
            if not consistent(a, b):
                return False

        free = [v for v in self.vertices() if v not in mapping]

        def extend(k: int) -> bool:
            if k == len(free):
                return True
            v = free[k]
            for w in other.vertices():
                if w in used:
                    continue
                if consistent(v, w):
                    mapping[v] = w
                    used.add(w)
                    if extend(k + 1):
                        return True
                    del mapping[v]
                    used.remove(w)
            return False

        return extend(0)

    def __repr__(self) -> str:
        return (
            f"Diagram({self.num_vertices()} vertices, {self.num_edges()} edges, "
            f"{len(self.inputs)}->{len(self.outputs)})"
        )


def new_diagram() -> Diagram:
    return Diagram()


# ----------------------------------------------------------------------
# .zxg interchange format
#
# Line-based, '#' starts a comment, blank lines ignored:
#   node <id> Z <phase> | node <id> X <phase> | node <id> H | node <id> B | node <id> D
#   edge <id> <id>
#   inputs <id> ...
#   outputs <id> ...
# Phases are integers or fractions in units of pi ("1" = pi, "1/2" = pi/2).


def parse_zxg(text: str) -> Diagram:
    """Parse .zxg source into a validated diagram.

    Raises :class:`ParseError` with the offending line number on syntax
    errors, and :class:`InvariantError` (naming the vertex) when the parsed
    graph breaks a structural invariant.
    """
    d = Diagram()
    names: dict[str, int] = {}
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
            if name in names:
                raise ParseError(f"duplicate node id {name!r}", lineno)
            if kind in ("Z", "X"):
                if len(parts) != 4:
                    raise ParseError(f"{kind} node needs exactly one phase token", lineno)
                try:
                    phase = Phase.from_token(parts[3])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"bad phase token {parts[3]!r}", lineno) from None
                names[name] = d.add_vertex(VertexType(kind), phase)
            elif kind in ("H", "B", "D"):
                if len(parts) != 3:
                    raise ParseError(f"{kind} node takes no phase", lineno)
                names[name] = d.add_vertex(VertexType(kind))
            else:
                raise ParseError(f"unknown node kind {kind!r}", lineno)
        elif directive == "edge":
            if len(parts) != 3:
                raise ParseError("edge needs exactly two ids", lineno)
            pending_edges.append((parts[1], parts[2], lineno))
        elif directive in ("inputs", "outputs"):
            for name in parts[1:]:
                pending_io.append((directive, name, lineno))
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
    interface = d.inputs + d.outputs
    for name, v in names.items():
        ty = d.types[v]
        if ty is VertexType.H and d.degree(v) != 2:
            raise InvariantError(f"H node {name!r} must have degree 2, has {d.degree(v)}")
        if ty is VertexType.BOUNDARY:
            if d.degree(v) != 1:
                raise InvariantError(
                    f"boundary node {name!r} must have degree 1, has {d.degree(v)}"
                )
            if interface.count(v) != 1:
                raise InvariantError(
                    f"boundary node {name!r} must appear in exactly one of inputs/outputs"
                )
    d.validate()
    return d


def serialize_zxg(d: Diagram) -> str:
    """Render a diagram as canonical .zxg text (nodes and edges sorted)."""
    lines = []
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


def to_dot(d: Diagram) -> str:
    """Graphviz export: undirected graph, one node per vertex with kind/phase label."""
    lines = ["graph zx {"]
    for v in d.vertices():
        ty = d.types[v]
        if ty is VertexType.Z or ty is VertexType.X:
            label = f"{ty.value}:{d.phases[v]}"
            color = "green" if ty is VertexType.Z else "red"
            attrs = f'label="{label}", shape=circle, style=filled, fillcolor={color}'
        elif ty is VertexType.H:
            attrs = 'label="H", shape=square, style=filled, fillcolor=yellow'
        elif ty is VertexType.DIAMOND:
            attrs = 'label="√2", shape=diamond, style=filled, fillcolor=black, fontcolor=white'
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
