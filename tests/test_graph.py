import random
import time

import numpy as np
import pytest
from hypothesis import given, note, settings
from hypothesis import strategies as st

from zxcalc.graph import (
    Diagram,
    InvariantError,
    ParseError,
    VertexType,
    parse_zxg,
    serialize_zxg,
    to_dot,
)
from zxcalc.phase import Phase, Scalar
from zxcalc.rewrite.rules import BACKWARD, FORWARD, RULE_NAMES, get_rule
from zxcalc.semantics import evaluate
from zxcalc.protocols import cnot, ghz_state, pauli, w_state, wire

from oracles import SIGMA_X, SIGMA_Z, exactly_equal, isomorphic, kron_all, proportional

Z, X = VertexType.Z, VertexType.X


def test_new_diagram_empty():
    d = Diagram()
    assert d.num_vertices() == 0 and d.num_edges() == 0
    assert evaluate(d).shape == (1, 1)
    assert evaluate(d)[0, 0] == 1

    text = serialize_zxg(d)
    assert serialize_zxg(parse_zxg(text)) == text


def test_self_loop_allowed_on_spiders():
    d = Diagram()
    z = d.add_vertex(Z, Phase.zero())
    d.add_edge(z, z)
    d.validate()
    assert d.degree(z) == 2
    assert d.self_loops(z) == 1


def test_degree_caps():
    d = Diagram()
    h = d.add_vertex(VertexType.H)
    z = d.add_vertex(Z, Phase.zero())
    d.add_edge(h, z)
    d.add_edge(h, z)
    with pytest.raises(InvariantError):
        d.add_edge(h, z)
    b = d.add_vertex(VertexType.BOUNDARY)
    d.add_edge(b, z)
    with pytest.raises(InvariantError):
        d.add_edge(b, z)
    with pytest.raises(InvariantError):
        d.add_edge(z, 999)


def test_parallel_edges_hopf_shape():
    d = Diagram()
    u = d.add_vertex(Z, Phase.pi())
    v = d.add_vertex(X, Phase.pi())
    d.add_edge(u, v)
    d.add_edge(u, v)
    d.validate()
    assert d.edge_count(u, v) == 2


def test_validate_catches_interface_errors():
    d = Diagram()
    z = d.add_vertex(Z, Phase.zero())
    b = d.add_vertex(VertexType.BOUNDARY)
    d.add_edge(b, z)
    d.inputs = [b]
    d.outputs = [b]
    with pytest.raises(InvariantError):
        d.validate()


def test_compose_identity_wires():
    w2 = wire().compose(wire())
    assert np.allclose(evaluate(w2), np.eye(2))


def test_compose_arity_mismatch():
    with pytest.raises(InvariantError):
        ghz_state().compose(wire())


def test_compose_matches_matrix_product():
    c2 = cnot().compose(cnot())
    assert proportional(evaluate(c2), np.eye(4))
    # exact functoriality, including the scalar
    assert np.allclose(
        evaluate(c2), evaluate(cnot()) @ evaluate(cnot()), atol=1e-12
    )


def test_compose_closes_loops():
    # cup then cap traces out to the scalar 2
    assert np.allclose(evaluate(_cup().compose(_cap())), [[2]])


def _cup():
    d = Diagram()
    a = d.add_vertex(VertexType.BOUNDARY)
    b = d.add_vertex(VertexType.BOUNDARY)
    d.add_edge(a, b)
    d.outputs = [a, b]
    return d


def _cap():
    d = Diagram()
    a = d.add_vertex(VertexType.BOUNDARY)
    b = d.add_vertex(VertexType.BOUNDARY)
    d.add_edge(a, b)
    d.inputs = [a, b]
    return d


def test_yanking():
    # (cap x wire) after (wire x cup) straightens back to the identity
    zig = wire().tensor(_cup())
    zag = _cap().tensor(wire())
    out = zig.compose(zag)
    assert proportional(evaluate(out), np.eye(2))


def test_tensor_matches_kron():
    d = pauli("X").tensor(pauli("Z"))
    assert proportional(evaluate(d), kron_all(SIGMA_X, SIGMA_Z))
    assert np.allclose(
        evaluate(d), np.kron(evaluate(pauli("X")), evaluate(pauli("Z"))), atol=1e-12
    )


def test_tensor_unit():
    d = Diagram().tensor(cnot())
    assert isomorphic(d, cnot())


def test_plug_points():
    ghz = ghz_state()
    v0 = evaluate(ghz.plugged("output", 0, "z+")).reshape(-1)
    assert proportional(v0, [1, 0, 0, 0])
    v1 = evaluate(ghz.plugged("output", 0, "z-")).reshape(-1)
    assert proportional(v1, [0, 0, 0, 1])
    w = w_state()
    assert proportional(
        evaluate(w.plugged("output", 1, "z-")).reshape(-1), [1, 0, 0, 0]
    )
    assert proportional(
        evaluate(w.plugged("output", 1, "z+")).reshape(-1), [0, 1, 1, 0]
    )
    with pytest.raises(InvariantError):
        ghz.plugged("output", 5, "z+")
    with pytest.raises(ValueError):
        ghz.plugged("output", 0, "y+")


def test_plug_input_side():
    # fixing CNOT's control input to |0> leaves the identity on the target
    d = cnot().plugged("input", 0, "z+")
    assert len(d.inputs) == 1 and len(d.outputs) == 2
    m = evaluate(d)
    assert proportional(m, np.array([[1, 0], [0, 1], [0, 0], [0, 0]]))


def test_plug_is_pure():
    ghz = ghz_state()
    before = serialize_zxg(ghz)
    ghz.plugged("output", 0, "x-")
    assert serialize_zxg(ghz) == before


# ----------------------------------------------------------------------
# .zxg format


def test_parse_simple_state():
    d = parse_zxg("node a Z 0\nnode b0 B\nedge a b0\noutputs b0\n")
    assert len(d.outputs) == 1 and not d.inputs
    assert np.allclose(evaluate(d).reshape(-1), [1, 1])


def test_parse_comments_blank_lines_and_fractions():
    text = """
    # a phase gate
    node s Z 1/2   # pi/2
    node i B
    node o B
    edge i s
    edge s o
    inputs i
    outputs o
    """
    d = parse_zxg(text)
    assert np.allclose(evaluate(d), [[1, 0], [0, 1j]], atol=1e-12)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_zxg("node a Z 0\nnode a X 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_zxg("node a Z 0\nedge a missing\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_zxg("node a Q\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_zxg("node a Z\n")  # spiders need a phase token
    assert err.value.line == 1


def test_parse_h_degree_violation_names_vertex():
    text = "node h H\nnode a Z 0\nnode b Z 0\nnode c Z 0\nedge h a\nedge h b\nedge h c\n"
    with pytest.raises(InvariantError) as err:
        parse_zxg(text)
    assert "h" in str(err.value) or "degree" in str(err.value)


def test_parse_interface_errors_name_the_boundary():
    pins = "node a Z 0\nnode i B\nnode o B\nedge i a\nedge a o\n"
    for listing in ("inputs i\n", "inputs i o\noutputs o\n", "inputs i i\noutputs o\n"):
        with pytest.raises(InvariantError) as err:
            parse_zxg(pins + listing)
        assert "must appear in exactly one of inputs/outputs" in str(err.value)
    assert parse_zxg(pins + "inputs i\noutputs o\n").inputs == [1]


def test_parse_many_pins_is_linear():
    """Each boundary's interface listing is counted once, not rescanned:
    one spider with 40,000 pins parses in well under 5 s of CPU."""
    pins = 40_000
    lines = ["node s Z 1/2", *(f"node b{k} B" for k in range(pins))]
    lines += [f"edge b{k} s" for k in range(pins)]
    lines.append("inputs " + " ".join(f"b{k}" for k in range(pins)))
    start = time.process_time()
    d = parse_zxg("\n".join(lines))
    assert time.process_time() - start < 5
    assert len(d.inputs) == d.degree(0) == pins


def test_parse_shares_one_phase_per_token_and_keeps_its_errors():
    d = parse_zxg("node a Z 1/2\nnode b X 1/2\nnode c Z 2/4\nedge a b\nedge b c\n")
    assert d.phases[0] is d.phases[1] and d.phases[2] == d.phases[0]
    with pytest.raises(ParseError) as err:
        parse_zxg("node a Z 1/2\nnode b X 1/2\nnode c Z 1/0\n")
    assert err.value.line == 3 and "bad phase token '1/0'" in str(err.value)


def test_round_trip_ghz_isomorphic():
    d = ghz_state()
    again = parse_zxg(serialize_zxg(d))
    assert isomorphic(again, d)


def test_round_trip_random(seed=7):
    from zxcalc.rewrite import random_diagram

    rng = random.Random(seed)
    for _ in range(50):
        d = random_diagram(rng)
        again = parse_zxg(serialize_zxg(d))
        assert isomorphic(again, d)


def test_isomorphism_respects_phase_and_interface_order():
    a = Diagram()
    v = a.add_vertex(Z, Phase(1, 2))
    a.add_output(v)
    b = Diagram()
    v = b.add_vertex(Z, Phase(3, 2))
    b.add_output(v)
    assert not isomorphic(a, b)

    c = cnot()
    flipped = cnot()
    flipped.inputs.reverse()
    assert not isomorphic(c, flipped)


def test_isomorphic_oracle_sees_multiplicity_loops_phase_and_order():
    """A third parallel edge, an extra self-loop, a changed phase and a
    swapped output order each break isomorphism; a graph conversion that
    dropped edge multiplicity would miss the first two."""
    def base():
        d = Diagram()
        u, v = d.add_vertex(Z, Phase(1, 2)), d.add_vertex(X)
        d.add_edge(u, v)
        d.add_edge(u, v)
        d.add_edge(v, v)
        d.add_input(u)
        d.add_output(u)
        d.add_output(v)
        return d, u, v

    d, u, v = base()
    assert isomorphic(d, base()[0])

    third, _, _ = base()
    third.add_edge(u, v)
    loop, _, _ = base()
    loop.add_edge(v, v)
    phase, _, _ = base()
    phase.phases[u] = Phase(3, 2)
    swapped, _, _ = base()
    swapped.outputs.reverse()
    for changed in (third, loop, phase, swapped):
        changed.validate()
        assert not isomorphic(d, changed)
        assert not isomorphic(changed, d)


def test_relabeling_preserves_semantics():
    from zxcalc.rewrite import random_diagram

    rng = random.Random(11)
    for _ in range(30):
        d = random_diagram(rng)
        ids = d.vertices()
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        assert np.allclose(evaluate(d.relabeled(mapping)), evaluate(d), atol=1e-12)


def test_scalar_is_kept_by_copies_and_multiplied_by_composition():
    a, b = cnot(), cnot()
    a.scalar = Scalar(1, Phase(1, 2))
    b.scalar = Scalar(-3, Phase(1), (Phase(1, 3),))
    product = Scalar(-2, Phase(3, 2), (Phase(1, 3),))
    assert a.compose(b).scalar == product
    assert a.tensor(b).scalar == product
    assert b.tensor(a).scalar == product
    assert a.copy().scalar == a.scalar
    assert a.relabeled({v: v + 10 for v in a.types}).scalar == a.scalar
    assert a.plugged("input", 0, "z+").scalar == a.scalar
    # the operands keep their own
    assert (a.scalar, b.scalar) == (Scalar(1, Phase(1, 2)), Scalar(-3, Phase(1), (Phase(1, 3),)))
    plain = cnot().compose(cnot())
    assert np.allclose(evaluate(a.compose(b)), complex(product) * evaluate(plain), atol=1e-12)


def test_zxg_carries_the_scalar():
    d = cnot()
    d.scalar = Scalar(3, Phase(1, 4), (Phase(0), Phase(1, 3)))
    text = serialize_zxg(d)
    assert text == "scalar 3 1/4 0 1/3\n" + serialize_zxg(cnot())
    again = parse_zxg(text)
    assert again.scalar == d.scalar
    assert serialize_zxg(again) == text
    assert evaluate(again).tobytes() == evaluate(d).tobytes()
    # scalar 1 writes no line; several lines multiply, nodes in any order
    assert serialize_zxg(cnot()).splitlines()[0].startswith("node ")
    parsed = parse_zxg("scalar 1 1/4 1/3\nscalar 2 0 0\n" + serialize_zxg(cnot()))
    assert parsed.scalar == d.scalar


def test_diamond_is_sugar_for_sqrt2():
    d = parse_zxg("node a D\nnode b D\nnode z Z 1/2\n")
    assert d.num_vertices() == 1
    assert d.scalar == Scalar(2)
    assert serialize_zxg(d) == "scalar 2 0\nnode 0 Z 1/2\n"
    assert parse_zxg("scalar 1 0\n").scalar == parse_zxg("node a D\n").scalar
    assert set(VertexType) == {Z, X, VertexType.H, VertexType.BOUNDARY}


@pytest.mark.parametrize(
    "text,message",
    [
        ("scalar 1 0 1\n", "line 1: a scalar node of phase 1 (pi) has the factor 0"),
        ("scalar 1 0 1/2 3/1\n", "line 1: a scalar node of phase 1 (pi) has the factor 0"),
        ("node z Z 0\nscalar 1\n", "line 2: scalar needs an integer power and phase tokens"),
        ("scalar\n", "line 1: scalar needs an integer power and phase tokens"),
        ("scalar 1/2 0\n", "line 1: scalar needs an integer power and phase tokens"),
        ("scalar 1 x\n", "line 1: scalar needs an integer power and phase tokens"),
        ("scalar 1 0 1/0\n", "line 1: scalar needs an integer power and phase tokens"),
        ("node a D\nnode a Z 0\n", "line 2: duplicate node id 'a'"),
        ("node a D 1\n", "line 1: D node takes no phase"),
        ("node a D\nnode z Z 0\nedge a z\n", "line 3: edge references unknown node 'a'"),
    ],
)
def test_bad_scalar_lines_name_their_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_zxg(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "scalar 5000 0\n",
        "scalar -5000 0\n",  # underflows to 0
        "scalar 0 0" + " 0" * 1100 + "\n",  # 2**1100 from the nodes
        "".join(f"node d{k} D\n" for k in range(2100)),
    ],
)
def test_scalar_outside_float_range_is_refused(text):
    with pytest.raises(InvariantError, match="scalar is out of floating-point range"):
        parse_zxg(text)


def test_to_dot_labels_the_scalar():
    d = parse_zxg("scalar 2 1/2 1/4\nnode z Z 0\nnode o B\nedge z o\noutputs o\n")
    assert '\n  label="scalar 2 1/2 1/4";\n' in to_dot(d)
    d.scalar = Scalar()
    assert "scalar" not in to_dot(d)


def test_to_dot_labels():
    d = Diagram()
    z = d.add_vertex(Z, Phase(1, 2))
    x = d.add_vertex(X, Phase.zero())
    d.add_edge(z, x)
    d.add_input(z)
    d.add_output(x)
    dot = to_dot(d)
    assert dot.startswith("graph zx {")
    assert 'label="Z:π/2"' in dot
    assert 'label="X:0"' in dot
    assert 'label="in 0"' in dot
    assert 'label="out 0"' in dot


# ----------------------------------------------------------------------
# property: parse_zxg inverts serialize_zxg exactly, the scalar included

_phases = st.builds(Phase, st.integers(-24, 24), st.integers(1, 12))
_scalars = st.builds(
    Scalar,
    st.integers(-40, 40),
    _phases,
    st.lists(_phases.filter(lambda a: not a.is_pi()), max_size=4).map(
        lambda nodes: tuple(sorted(nodes, key=lambda a: a.fraction))
    ),
)


# every (rule, direction) pair, whose left-hand side _diagrams may embed
_RULE_PAIRS = [(name, FORWARD) for name in RULE_NAMES] + [
    (name, BACKWARD) for name in ("S1", "B2", "C")
]


@st.composite
def _diagrams(draw, arity=None):
    """Spiders with parallel edges and self-loops, H boxes, boundaries and a
    random Scalar.  Half the draws also hold one rule's bare left-hand side
    (its ``lhs``, from a ``random.Random`` seeded by the draw), each free leg
    wired to one of the other spiders, so every rule's pattern turns up.
    The edges go in sorted, as ``serialize_zxg`` writes them: evaluation
    labels tensor axes in edge insertion order, so only then are the float
    bytes of the two evaluations, not just their values, equal.  ``arity``,
    an (inputs, outputs) pair, fixes the pins; else they are drawn."""
    d = Diagram()
    n = draw(st.integers(1, 5))
    spiders = [d.add_vertex(draw(st.sampled_from((Z, X))), draw(_phases)) for _ in range(n)]
    pick = st.sampled_from(spiders)
    edges = []
    if draw(st.booleans()):
        name, direction = draw(st.sampled_from(_RULE_PAIRS))
        part = Diagram()
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        pool = [Phase(k, 2) for k in range(4)] + [draw(_phases)]  # as the soundness sampler
        legs = get_rule(name, direction).lhs(part, rng, pool)
        ids = {v: d.add_vertex(part.types[v], part.phases.get(v)) for v in part.vertices()}
        edges += [(ids[a], ids[b]) for a, b in part.edges]
        edges += [(ids[v], draw(pick)) for v in legs]
    hs = [d.add_vertex(VertexType.H) for _ in range(draw(st.integers(0, 2)))]
    if arity is None:
        pins = [
            (d.add_input if draw(st.booleans()) else d.add_output)()
            for _ in range(draw(st.integers(0, 4)))
        ]
    else:
        pins = [d.add_input() for _ in range(arity[0])] + [d.add_output() for _ in range(arity[1])]
    edges += [(draw(pick), draw(pick)) for _ in range(draw(st.integers(0, 8)))]
    edges += [(v, draw(pick)) for v in hs + hs + pins]
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        d.add_edge(a, b)
    d.scalar = draw(_scalars)
    d.validate()
    return d


@settings(max_examples=300, deadline=None)
@given(_diagrams())
def test_zxg_round_trip_is_exact(d):
    text = serialize_zxg(d)
    note(text)  # a failure shows the shrunk diagram as .zxg
    again = parse_zxg(text)
    assert again.scalar == d.scalar
    assert serialize_zxg(again) == text
    assert evaluate(again).tobytes() == evaluate(d).tobytes()


# ----------------------------------------------------------------------
# property: sequential and parallel composition are associative


def _same_diagram(left, right):
    note(serialize_zxg(left))
    note(serialize_zxg(right))
    assert left.scalar == right.scalar
    assert isomorphic(left, right)
    assert exactly_equal(evaluate(left), evaluate(right))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4), st.data())
def test_compose_is_associative(wires, data):
    a, b, c = (data.draw(_diagrams((wires[k], wires[k + 1]))) for k in range(3))
    _same_diagram(a.compose(b).compose(c), a.compose(b.compose(c)))


@settings(max_examples=100, deadline=None)
@given(_diagrams(), _diagrams(), _diagrams())
def test_tensor_is_associative(a, b, c):
    _same_diagram(a.tensor(b).tensor(c), a.tensor(b.tensor(c)))
