"""The Diagram edge record against a flat, insertion-ordered edge list.

Seeded random sequences of graph operations run on a pool of diagrams and,
side by side, on shadow models that keep every edge as ``(low, high)`` in
one list and answer each query by rescanning it.  After every operation
each diagram in the pool must answer every query as its shadow does, so a
copy that shares state with its original shows up as soon as either is
changed.
"""

import random
from collections import Counter

import pytest

from zxcalc.graph import Diagram, InvariantError, VertexType
from zxcalc.phase import Phase
from zxcalc.protocols import cnot

Z, X, H, B = VertexType.Z, VertexType.X, VertexType.H, VertexType.BOUNDARY
_CAP = {H: 2, B: 1}


def _key(a, b):
    return (a, b) if a <= b else (b, a)


class Shadow:
    """A diagram's vertices, interfaces and edges as plain lists."""

    def __init__(self):
        self.types = {}
        self.edges = []
        self.inputs = []
        self.outputs = []
        self.next_id = 0

    def clone(self):
        s = Shadow()
        s.types, s.edges = dict(self.types), list(self.edges)
        s.inputs, s.outputs, s.next_id = list(self.inputs), list(self.outputs), self.next_id
        return s

    def fresh(self, ty):
        v = self.next_id
        self.next_id += 1
        self.types[v] = ty
        return v

    def degree(self, v):
        return sum((a == v) + (b == v) for a, b in self.edges)

    def neighbors(self, v):
        return sorted(b if a == v else a for a, b in self.edges if v in (a, b) and a != b)

    def remove_vertex(self, v):
        del self.types[v]
        self.edges = [e for e in self.edges if v not in e]
        self.inputs = [w for w in self.inputs if w != v]
        self.outputs = [w for w in self.outputs if w != v]

    def relabeled(self, mapping):
        s = Shadow()
        s.types = {mapping[v]: t for v, t in self.types.items()}
        s.edges = [_key(mapping[a], mapping[b]) for a, b in self.edges]
        s.inputs = [mapping[v] for v in self.inputs]
        s.outputs = [mapping[v] for v in self.outputs]
        s.next_id = max(s.types, default=-1) + 1
        return s

    def absorbed(self, other):
        """Self with ``other`` appended under fresh ids, and the id map."""
        s = self.clone()
        mapping = {v: s.fresh(other.types[v]) for v in sorted(other.types)}
        s.edges += [_key(mapping[a], mapping[b]) for a, b in other.edges]
        return s, mapping

    def tensor(self, right):
        s, mapping = self.absorbed(right)
        s.inputs += [mapping[v] for v in right.inputs]
        s.outputs += [mapping[v] for v in right.outputs]
        return s

    def compose(self, second):
        s, mapping = self.absorbed(second)
        for o, i in zip(self.outputs, [mapping[v] for v in second.inputs]):
            if _key(o, i) in s.edges:
                loop = s.fresh(Z)
                new = (loop, loop)
            else:
                (a,) = s.neighbors(o)
                (b,) = s.neighbors(i)
                new = _key(a, b)
            s.remove_vertex(o)
            s.remove_vertex(i)
            s.edges.append(new)
        s.outputs = [mapping[v] for v in second.outputs]
        return s


def check_same(d, s):
    """Every query of d against its shadow; True if the degree index was
    built here rather than kept up to date by the edits before."""
    built_here = d._by_degree is None
    assert d.vertices() == sorted(s.types)
    assert d.types == s.types
    assert (d.inputs, d.outputs) == (s.inputs, s.outputs)
    assert d.edges == s.edges
    assert d.num_edges() == len(s.edges)
    assert d.looped() == sorted({a for a, b in s.edges if a == b})
    unknown = [-1, s.next_id, s.next_id + 7]
    for v in sorted(s.types) + unknown:
        assert d.degree(v) == s.degree(v)
        assert d.incident(v) == [e for e in s.edges if v in e]
        assert d.neighbors(v) == s.neighbors(v)
        assert d.self_loops(v) == s.edges.count((v, v))
        for w in {v, unknown[0], *s.neighbors(v)}:
            assert d.edge_count(v, w) == s.edges.count(_key(v, w))
            assert d.edge_count(w, v) == s.edges.count(_key(v, w))
    degrees = {v: s.degree(v) for v in s.types}
    for k in range(max(degrees.values(), default=0) + 2):
        assert d._of_degree(k) == sorted(v for v, n in degrees.items() if n == k)
    return built_here


# ----------------------------------------------------------------------
# operations, each applied to a diagram and its shadow alike


def op_add_vertex(d, s, rng):
    ty = rng.choice([Z, Z, X, X, H])
    phase = Phase(rng.randrange(4), 2) if ty.is_spider() else None
    assert d.add_vertex(ty, phase) == s.fresh(ty)


def op_add_pin(d, s, rng, side=None):
    """A boundary wired to a spider, on a random side of the interface."""
    spiders = [v for v, t in s.types.items() if t.is_spider()]
    if not spiders:
        return
    w = rng.choice(spiders)
    side = side or rng.choice(["inputs", "outputs"])
    v = (d.add_input if side == "inputs" else d.add_output)(w)
    assert v == s.fresh(B)
    getattr(s, side).append(v)
    s.edges.append(_key(v, w))


def op_add_wire(d, s, rng, sides=None):
    """Two boundaries joined directly: a cup, a cap or an identity wire."""
    sides = sides or rng.choice([("inputs", "inputs"), ("outputs", "outputs"), ("inputs", "outputs")])
    pins = [d.add_vertex(B), d.add_vertex(B)]
    assert pins == [s.fresh(B), s.fresh(B)]
    d.add_edge(*pins)
    s.edges.append(_key(*pins))
    for v, side in zip(pins, sides):
        getattr(d, side).append(v)
        getattr(s, side).append(v)


def op_add_edge(d, s, rng):
    ids = sorted(s.types) + [s.next_id]  # the last id is unknown
    if s.edges and rng.random() < 0.3:
        a, b = rng.choice(s.edges)  # a parallel edge or a second self-loop
    else:
        a = rng.choice(ids)
        b = a if rng.random() < 0.25 else rng.choice(ids)
    gain = {a: 1}
    gain[b] = gain.get(b, 0) + 1
    if all(v in s.types for v in gain) and all(
        s.types[v] not in _CAP or s.degree(v) + extra <= _CAP[s.types[v]]
        for v, extra in gain.items()
    ):
        d.add_edge(a, b)
        s.edges.append(_key(a, b))
    else:
        with pytest.raises(InvariantError):
            d.add_edge(a, b)


def op_remove_edge(d, s, rng):
    inner = [e for e in s.edges if B not in (s.types[e[0]], s.types[e[1]])]
    if inner and rng.random() < 0.8:
        a, b = rng.choice(inner)
        if rng.random() < 0.5:
            a, b = b, a
        d.remove_edge(a, b)
        s.edges.remove(_key(a, b))
    else:
        a, b = rng.choice(sorted(s.types) + [-1]), s.next_id
        with pytest.raises(InvariantError):
            d.remove_edge(a, b)
        with pytest.raises(InvariantError):
            d.remove_edge(b, a)


def op_remove_vertex(d, s, rng):
    if not s.types or rng.random() < 0.1:
        with pytest.raises(InvariantError):
            d.remove_vertex(s.next_id)
        return
    v = rng.choice(sorted(s.types))
    # boundaries left without their one edge go too, so that compose stays defined
    pins = sorted({w for w in s.neighbors(v) if s.types[w] is B})
    for w in [v] + pins:
        d.remove_vertex(w)
        s.remove_vertex(w)


def _partner(first, rng):
    """A diagram with an input for each output of ``first``, made by the same
    operations; a cup on two outputs of ``first`` often meets a cap, so the
    composite closes a loop."""
    d, s = Diagram(), Shadow()
    arity = len(first.outputs)
    while len(s.inputs) < arity:
        k = len(s.inputs)
        cup = k + 1 < arity and _key(*first.outputs[k : k + 2]) in first.edges
        if cup and rng.random() < 0.7:
            op_add_wire(d, s, rng, ("inputs", "inputs"))
        elif arity - k >= 2 and rng.random() < 0.3:
            op_add_wire(d, s, rng)  # adds at most two inputs
        else:
            op_add_vertex(d, s, rng)
            op_add_pin(d, s, rng, "inputs")
    for _ in range(rng.randrange(6)):
        op = rng.choice([op_add_vertex, op_add_edge, op_add_pin])
        if op is op_add_pin:
            op_add_pin(d, s, rng, "outputs")
        else:
            op(d, s, rng)
    return d, s


_LOCAL = [op_add_vertex, op_add_pin, op_add_wire, op_add_edge, op_remove_edge, op_remove_vertex]


def _run(seed, steps=60):
    """The final pool, and a tally of what the run did: each kind of
    operation, the loops the compositions closed, and the checks that built
    a degree index (``index_built``) or found one kept up (``index_kept``)."""
    rng = random.Random(seed)
    pool = [(Diagram(), Shadow())]
    seen = Counter()
    for _ in range(steps):
        d, s = rng.choice(pool)
        kind = rng.choices(["local", "copy", "relabeled", "tensor", "compose"], [12, 2, 1, 1, 2])[0]
        seen[kind] += 1
        if kind == "local":
            weights = [4 if len(s.types) < 25 else 1, 2, 2, 6, 3, 2]
            rng.choices(_LOCAL, weights)[0](d, s, rng)
        elif kind == "copy":
            pool.append((d.copy(), s.clone()))
        elif kind == "relabeled":
            ids = sorted(s.types)
            mapping = dict(zip(ids, rng.sample(range(2 * len(ids) + 3), len(ids))))
            pool.append((d.relabeled(mapping), s.relabeled(mapping)))
        elif kind == "tensor":
            e, t = rng.choice(pool)
            if len(s.types) + len(t.types) < 60:
                pool.append((d.tensor(e), s.tensor(t)))
        else:
            e, t = _partner(s, rng)
            check_same(e, t)
            pool.append((d.compose(e), s.compose(t)))
            check_same(e, t)  # the operands are untouched
            grown = len(pool[-1][1].types) - len(s.types) - len(t.types)
            seen["closed"] += grown + 2 * len(s.outputs)
        pool = pool[-4:]
        for d, s in pool:
            seen["index_built" if check_same(d, s) else "index_kept"] += 1
    return pool, seen


@pytest.mark.parametrize("seed", range(12))
def test_edge_record_matches_flat_edge_list(seed):
    _run(seed)


def test_random_runs_cover_every_shape():
    """The sequences above do reach self-loops, parallel edges, copies,
    relabels and compositions that close a loop, and check degree indexes
    both as first built and as kept up by later edits."""
    loops = parallel = 0
    seen = Counter()
    for seed in range(12):
        pool, tally = _run(seed)
        seen += tally
        for d, _ in pool:
            edges = d.edges
            loops += sum(a == b for a, b in edges)
            parallel += len(edges) - len(set(edges))
    assert loops > 0 and parallel > 0
    for what in ("copy", "relabeled", "tensor", "compose", "closed", "index_built", "index_kept"):
        assert seen[what] > 0, what


def test_unknown_vertex_answers():
    d = Diagram()
    z = d.add_vertex(Z)
    d.add_edge(z, z)
    gone = d.add_vertex(X)
    d.add_edge(z, gone)
    d.remove_vertex(gone)
    for v in (gone, -1, 99):
        assert d.degree(v) == 0
        assert d.incident(v) == []
        assert d.neighbors(v) == []
        assert d.self_loops(v) == 0
        assert d.edge_count(v, z) == d.edge_count(z, v) == d.edge_count(v, v) == 0
        with pytest.raises(InvariantError):
            d.remove_edge(v, z)
        with pytest.raises(InvariantError):
            d.remove_edge(z, v)
    assert d.edges == [(z, z)]


def test_edges_is_a_read_only_view():
    d = cnot()
    before = d.edges
    with pytest.raises(AttributeError):
        d.edges = []
    view = d.edges
    view.append((0, 0))
    view.reverse()
    assert d.edges == before
    assert d.edges is not d.edges
