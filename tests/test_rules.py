import hashlib
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from zxcalc.graph import Diagram, VertexType, parse_zxg, serialize_zxg
from zxcalc.phase import Phase, Scalar
from zxcalc.protocols import cnot
from zxcalc.semantics import evaluate
from zxcalc.rewrite import BACKWARD, FORWARD, RULE_NAMES, Match, StaleMatchError, get_rule
from zxcalc.rewrite.rules import unfuse_match
from zxcalc.rewrite.soundness import _phase_pool, embed_lhs, random_diagram

from oracles import (
    SIGMA_X,
    exactly_equal,
    isomorphic,
    lhs_samples,
    proportional,
    z_spider_matrix,
)

Z, X = VertexType.Z, VertexType.X

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"

# every (rule, direction) pair: the forward rules, then the three backward ones
PAIRS = [(name, FORWARD) for name in RULE_NAMES] + [
    (name, BACKWARD) for name in ("S1", "B2", "C")
]


def chain(*vertices):
    """A 1-in-1-out diagram threading the given (type, phase) spiders."""
    d = Diagram()
    ids = [d.add_vertex(ty, ph) for ty, ph in vertices]
    for a, b in zip(ids, ids[1:]):
        d.add_edge(a, b)
    d.add_input(ids[0])
    d.add_output(ids[-1])
    return d, ids


def preserved(rule, d, m):
    """apply keeps the evaluated matrix exactly, its scalar included."""
    return exactly_equal(evaluate(rule.apply(d, m)), evaluate(d))


# ----------------------------------------------------------------------
# S1


def test_s1_single_match_and_phase_addition():
    d, (u, v) = chain((Z, Phase(1, 2)), (Z, Phase(1, 2)))
    rule = get_rule("S1")
    matches = list(rule.iter_matches(d))
    assert len(matches) == 1
    out = rule.apply(d, matches[0])
    (spider,) = [w for w in out.vertices() if out.types[w].is_spider()]
    assert out.phases[spider] == Phase.pi()
    assert preserved(rule, d, matches[0])


def test_s1_no_match_across_colours():
    d, _ = chain((Z, Phase(0)), (X, Phase(0)))
    assert list(get_rule("S1").iter_matches(d)) == []


def test_s1_parallel_edges_fuse_cleanly():
    d = Diagram()
    u = d.add_vertex(Z, Phase(1, 4))
    v = d.add_vertex(Z, Phase(1, 4))
    d.add_edge(u, v)
    d.add_edge(u, v)
    d.add_output(u)
    rule = get_rule("S1")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    assert out.num_edges() == 1  # just the boundary wire
    assert preserved(rule, d, m)


def test_s1_backward_splits_and_refuses_stale():
    d, (s,) = chain((Z, Phase(1, 3)),)
    rule = get_rule("S1", BACKWARD)
    m = unfuse_match(s, (), Phase(1, 3))
    out = rule.apply(d, m)
    assert out.num_vertices() == d.num_vertices() + 1
    assert preserved(rule, d, m)
    with pytest.raises(StaleMatchError):
        rule.apply(d, unfuse_match(s, ((99, 1),), Phase.zero()))


def test_s1_backward_enumeration_is_sound():
    rng = random.Random(2)
    from zxcalc.rewrite import random_diagram

    rule = get_rule("S1", BACKWARD)
    for _ in range(40):
        d = random_diagram(rng, max_vertices=5, max_boundaries=3)
        for m in list(rule.iter_matches(d))[:4]:
            assert preserved(rule, d, m)


# ----------------------------------------------------------------------
# S2a / S2b


def test_s2a_removes_identity_spider():
    d, ids = chain((Z, Phase(1, 4)), (X, Phase(0)), (Z, Phase(1, 4)))
    rule = get_rule("S2a")
    matches = list(rule.iter_matches(d))
    assert [m["vertex"] for m in matches] == [ids[1]]
    out = rule.apply(d, matches[0])
    assert ids[1] not in out.types
    assert preserved(rule, d, matches[0])


def test_s2a_skips_phased_and_high_degree():
    d, _ = chain((Z, Phase(1, 2)),)
    assert list(get_rule("S2a").iter_matches(d)) == []


def test_s2b_removes_self_loop():
    d, (v,) = chain((X, Phase(1, 3)),)
    d_loop = d.copy()
    d_loop.add_edge(v, v)
    rule = get_rule("S2b")
    m = list(rule.iter_matches(d_loop))[0]
    out = rule.apply(d_loop, m)
    assert out.self_loops(v) == 0
    assert np.allclose(evaluate(out), evaluate(d_loop), atol=1e-12)


# ----------------------------------------------------------------------
# B1 / K1 / A


def _point_on_spider(point_ty, point_phase, spider_phase, legs=2):
    d = Diagram()
    p = d.add_vertex(point_ty, point_phase)
    s = d.add_vertex(point_ty.opposite, spider_phase)
    d.add_edge(p, s)
    for _ in range(legs):
        d.add_output(s)
    return d, p, s


def test_b1_copies_through():
    d, p, s = _point_on_spider(X, Phase(0), Phase(0), legs=2)
    rule = get_rule("B1")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    points = [v for v in out.vertices() if out.types[v].is_spider()]
    assert len(points) == 2
    assert all(out.types[v] is X and out.phases[v].is_zero() for v in points)
    assert preserved(rule, d, m)


def test_b1_requires_phase_free_pair():
    d, _, _ = _point_on_spider(X, Phase(0), Phase(1, 4))
    assert list(get_rule("B1").iter_matches(d)) == []
    d, _, _ = _point_on_spider(X, Phase(1), Phase(0))
    assert list(get_rule("B1").iter_matches(d)) == []  # that shape is K1's


def test_b1_no_arity_one_spiders_no_match():
    d, _ = chain((Z, Phase(0)), (X, Phase(0)), (Z, Phase(0)))
    assert list(get_rule("B1").iter_matches(d)) == []


def test_k1_copies_pi():
    d, p, s = _point_on_spider(Z, Phase(1), Phase(0), legs=3)
    rule = get_rule("K1")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    points = [v for v in out.vertices() if out.types[v].is_spider()]
    assert len(points) == 3
    assert all(out.types[v] is Z and out.phases[v].is_pi() for v in points)
    assert preserved(rule, d, m)


def test_rule_a_absorbs_through_phased_spider():
    d, p, s = _point_on_spider(X, Phase(1), Phase(5, 4), legs=2)
    assert list(get_rule("K1").iter_matches(d)) == []  # K1 insists on phase 0
    rule = get_rule("A")
    m = list(rule.iter_matches(d))[0]
    assert preserved(rule, d, m)
    out = rule.apply(d, m)
    assert proportional(evaluate(out), evaluate(d))
    assert proportional(evaluate(out).reshape(-1), [0, 0, 0, 1])


# ----------------------------------------------------------------------
# K2


def test_k2_commutes_pi_and_negates_phase():
    # X(pi) then Z(a) on a wire; spec example at a = pi/3
    d, (x, s) = chain((X, Phase(1)), (Z, Phase(1, 3)))
    rule = get_rule("K2")
    matches = [m for m in rule.iter_matches(d) if m["spider"] == s]
    assert len(matches) == 1
    out = rule.apply(d, matches[0])
    assert out.phases[s] == Phase(-Phase(1, 3).fraction)
    assert preserved(rule, d, matches[0])
    # oracle: sigma_x Z(a) = Z(-a) sigma_x up to scalar, by direct product
    za = z_spider_matrix(1, 1, Phase(1, 3).radians)
    zna = z_spider_matrix(1, 1, -Phase(1, 3).radians)
    assert proportional(SIGMA_X @ za, zna @ SIGMA_X)


def test_k2_inserts_pi_on_remaining_legs():
    d = Diagram()
    x = d.add_vertex(X, Phase(1))
    s = d.add_vertex(Z, Phase(1, 2))
    d.add_edge(x, s)
    d.add_input(x)
    d.add_output(s)
    d.add_output(s)
    rule = get_rule("K2")
    m = [m for m in rule.iter_matches(d) if m["spider"] == s][0]
    out = rule.apply(d, m)
    pis = [v for v in out.vertices() if out.types[v] is X and out.phases.get(v) == Phase(1)]
    assert len(pis) == 2
    assert preserved(rule, d, m)


def test_k2_rejects_non_pi():
    d, _ = chain((X, Phase(1, 2)), (Z, Phase(1, 3)))
    assert list(get_rule("K2").iter_matches(d)) == []


# ----------------------------------------------------------------------
# C


def test_c_forward_adds_hadamards():
    d = Diagram()
    v = d.add_vertex(X, Phase(0))
    for _ in range(3):
        d.add_output(v)
    rule = get_rule("C")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    hs = [w for w in out.vertices() if out.types[w] is VertexType.H]
    assert len(hs) == 3
    assert out.types[v] is Z
    assert preserved(rule, d, m)


def test_c_round_trip():
    d, (v,) = chain((X, Phase(5, 4)),)
    fwd = get_rule("C")
    bwd = get_rule("C", BACKWARD)
    once = fwd.apply(d, list(fwd.iter_matches(d))[0])
    m = [m for m in bwd.iter_matches(once) if m["vertex"] == v]
    assert len(m) == 1
    back = bwd.apply(once, m[0])
    assert isomorphic(back, d)


def test_c_backward_requires_h_on_every_leg():
    d = Diagram()
    v = d.add_vertex(Z, Phase(0))
    h = d.add_vertex(VertexType.H)
    d.add_edge(v, h)
    d.add_output(h)
    d.add_output(v)  # second leg has no H
    assert [m for m in get_rule("C", BACKWARD).iter_matches(d) if m["vertex"] == v] == []


def test_c_backward_refuses_an_h_pair_that_loops_back():
    """Two H boxes joined to each other and each once to v: a loop on v
    through both.  Stripping the first left the second with both legs on v,
    and ``_rewrite`` raised ``ValueError``; the shape is refused instead."""
    d = parse_zxg("node v Z 1\nnode a H\nnode b H\nedge v a\nedge v b\nedge a b\n")
    rule = get_rule("C", BACKWARD)
    assert list(rule.iter_matches(d)) == []
    m = next(iter(rule.candidates(d)))
    with pytest.raises(StaleMatchError):
        rule.apply(d, m)


# ----------------------------------------------------------------------
# B2


def _bialgebra_pair():
    d = Diagram()
    z = d.add_vertex(Z, Phase(0))
    x = d.add_vertex(X, Phase(0))
    d.add_edge(z, x)
    d.add_input(z)
    d.add_input(z)
    d.add_output(x)
    d.add_output(x)
    return d, z, x


def test_b2_forward_builds_square():
    d, z, x = _bialgebra_pair()
    rule = get_rule("B2")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    spiders = [v for v in out.vertices() if out.types[v].is_spider()]
    assert len(spiders) == 4
    assert out.num_edges() == 4 + 4  # K22 plus four boundary wires
    assert preserved(rule, d, m)


def test_b2_round_trip():
    d, _, _ = _bialgebra_pair()
    fwd = get_rule("B2")
    bwd = get_rule("B2", BACKWARD)
    square = fwd.apply(d, list(fwd.iter_matches(d))[0])
    m = list(bwd.iter_matches(square))
    assert len(m) == 1
    pair = bwd.apply(square, m[0])
    assert isomorphic(pair, d)


# ----------------------------------------------------------------------
# D1 / D2


def test_d1_deletes_scalar_pair():
    d = Diagram()
    p = d.add_vertex(Z, Phase(0))
    q = d.add_vertex(X, Phase(5, 4))
    d.add_edge(p, q)
    spectator = d.add_vertex(Z, Phase(0))
    d.add_output(spectator)
    rule = get_rule("D1")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    assert out.num_vertices() == 2  # spectator and its boundary
    assert preserved(rule, d, m)


def test_d1_multiplies_sqrt2_into_the_scalar():
    d = Diagram()
    p = d.add_vertex(Z, Phase(0))
    q = d.add_vertex(X, Phase(1, 2))
    d.add_edge(p, q)
    rule = get_rule("D1")
    m = list(rule.iter_matches(d))[0]
    out = rule.apply(d, m)
    assert out.num_vertices() == 0  # the pair is gone; its sqrt(2) is in the scalar
    assert out.scalar == Scalar(1)
    assert np.allclose(evaluate(out), evaluate(d), atol=1e-12)


def test_d1_never_deletes_possible_zero():
    d = Diagram()
    p = d.add_vertex(Z, Phase(1, 2))
    q = d.add_vertex(X, Phase(3, 2))
    d.add_edge(p, q)
    assert list(get_rule("D1").iter_matches(d)) == []


def test_d2_circle_and_diamond():
    # the diamond is parse-time sugar: it is in the scalar, not a vertex
    d = parse_zxg("node c Z 0\nedge c c\nnode d D\n")
    assert d.scalar == Scalar(1)
    rule = get_rule("D2")
    (m,) = list(rule.iter_matches(d))  # only the circle
    out = rule.apply(d, m)
    assert out.num_vertices() == 0
    # the circle Z(0) is 1 + e^0 = 2, multiplied into the diamond's sqrt(2),
    # so the empty diagram evaluates exactly as before
    assert out.scalar == Scalar(1, Phase(0), (Phase(0),))
    assert np.allclose(evaluate(out), evaluate(d), atol=1e-12)
    assert np.allclose(evaluate(out), [[2 * math.sqrt(2)]], atol=1e-12)


def test_d2_keeps_zero_scalar():
    d = Diagram()
    d.add_vertex(Z, Phase(1))  # 1 + e^{i pi} = 0; deleting it would be unsound
    assert list(get_rule("D2").iter_matches(d)) == []


# ----------------------------------------------------------------------
# E


def _supplementarity(center_ty, center_phase):
    d = Diagram()
    t = d.add_vertex(center_ty, center_phase)
    for _ in range(2):
        p = d.add_vertex(center_ty.opposite, Phase(1))
        d.add_edge(t, p)
    d.add_output(t)
    return d, t


@pytest.mark.parametrize("center_ty", [Z, X])
@pytest.mark.parametrize("center_phase", [Phase(0), Phase(1)])
def test_e_collapses_pi_pair(center_ty, center_phase):
    d, t = _supplementarity(center_ty, center_phase)
    rule = get_rule("E")
    matches = list(rule.iter_matches(d))
    assert len(matches) == 1
    out = rule.apply(d, matches[0])
    (point,) = [v for v in out.vertices() if out.types[v].is_spider()]
    assert out.types[point] is center_ty.opposite
    assert out.phases[point].is_pi()
    assert preserved(rule, d, matches[0])


def test_e_rejects_wrong_phases():
    d = Diagram()
    t = d.add_vertex(X, Phase(1, 2))  # centre must be 0 or pi
    for _ in range(2):
        p = d.add_vertex(Z, Phase(1))
        d.add_edge(t, p)
    d.add_output(t)
    assert list(get_rule("E").iter_matches(d)) == []


# ----------------------------------------------------------------------
# HOPF


def test_hopf_lemma_shape():
    d = Diagram()
    z = d.add_vertex(Z, Phase(0))
    x = d.add_vertex(X, Phase(0))
    d.add_edge(z, x)
    d.add_edge(z, x)
    d.add_input(z)
    d.add_output(x)
    rule = get_rule("HOPF")
    matches = list(rule.iter_matches(d))
    assert len(matches) == 1
    out = rule.apply(d, matches[0])
    assert out.edge_count(z, x) == 0
    assert preserved(rule, d, matches[0])
    assert proportional(evaluate(out), np.array([[1, 1], [0, 0]]))


def test_hopf_needs_exactly_two_edges():
    d = Diagram()
    z = d.add_vertex(Z, Phase(0))
    x = d.add_vertex(X, Phase(0))
    d.add_edge(z, x)
    assert list(get_rule("HOPF").iter_matches(d)) == []
    d.add_edge(z, x)
    d.add_edge(z, x)
    assert list(get_rule("HOPF").iter_matches(d)) == []


# ----------------------------------------------------------------------
# exact scalars: one minimal instance per (rule, direction)


def _wired(d, ins=(), outs=()):
    for v in ins:
        d.add_input(v)
    for v in outs:
        d.add_output(v)
    return d


def _pair(a, b, edges=1):
    d = Diagram()
    u, v = d.add_vertex(*a), d.add_vertex(*b)
    for _ in range(edges):
        d.add_edge(u, v)
    return d, u, v


def _s2b_instance():
    d = Diagram()
    v = d.add_vertex(Z, Phase(1, 4))
    d.add_edge(v, v)
    return _wired(d, outs=[v])


def _a_instance():
    d, p, s = _point_on_spider(X, Phase(1), Phase(1, 3), legs=2)
    d.add_edge(s, s)  # a self-loop is not a leg: k stays 2
    return d


def _k2_instance():
    d, x, s = _pair((X, Phase(1)), (Z, Phase(1, 4)))
    return _wired(d, ins=[x], outs=[s, s])


def _b2_instance():
    d, z, x = _pair((Z, Phase(0)), (X, Phase(0)))
    return _wired(d, ins=[z, z], outs=[x, x])


def _square_instance():
    d = Diagram()
    xs = [d.add_vertex(X, Phase(0)) for _ in range(2)]
    zs = [d.add_vertex(Z, Phase(0)) for _ in range(2)]
    for a in xs:
        for b in zs:
            d.add_edge(a, b)
    return _wired(d, ins=xs, outs=zs)


def _c_backward_instance():
    d = Diagram()
    v = d.add_vertex(Z, Phase(1, 2))
    for _ in range(2):
        h = d.add_vertex(VertexType.H)
        d.add_edge(v, h)
        d.add_output(h)
    return d


def _hopf_instance():
    d, z, x = _pair((Z, Phase(1, 4)), (X, Phase(0)), edges=2)
    return _wired(d, ins=[z], outs=[x])


def _d2_instance():
    d = Diagram()
    v = d.add_vertex(X, Phase(1, 2))
    d.add_edge(v, v)
    return d


# (rule, direction): (start diagram, the scalar apply multiplies in)
SCALAR_CASES = {
    ("S1", FORWARD): (lambda: chain((Z, Phase(1, 2)), (Z, Phase(1, 2)))[0], Scalar()),
    ("S1", BACKWARD): (lambda: chain((Z, Phase(1, 3)))[0], Scalar()),
    ("S2a", FORWARD): (lambda: chain((X, Phase(0)))[0], Scalar()),
    ("S2b", FORWARD): (_s2b_instance, Scalar()),
    ("B1", FORWARD): (lambda: _point_on_spider(X, Phase(0), Phase(0), legs=2)[0], Scalar(-1)),
    ("K1", FORWARD): (lambda: _point_on_spider(Z, Phase(1), Phase(0), legs=3)[0], Scalar(-2)),
    ("A", FORWARD): (_a_instance, Scalar(-1, Phase(1, 3))),
    ("K2", FORWARD): (_k2_instance, Scalar(0, Phase(1, 4))),
    ("B2", FORWARD): (_b2_instance, Scalar(1)),
    ("B2", BACKWARD): (_square_instance, Scalar(-1)),
    ("C", FORWARD): (lambda: chain((X, Phase(1, 2)))[0], Scalar()),
    ("C", BACKWARD): (_c_backward_instance, Scalar()),
    ("D1", FORWARD): (lambda: _pair((Z, Phase(1)), (X, Phase(1, 3)))[0], Scalar(1, Phase(1, 3))),
    ("D2", FORWARD): (_d2_instance, Scalar(0, Phase(0), (Phase(1, 2),))),
    ("E", FORWARD): (lambda: _supplementarity(Z, Phase(1))[0], Scalar(1, Phase(1))),
    ("HOPF", FORWARD): (_hopf_instance, Scalar(-2)),
}


def test_every_pair_has_a_scalar_case():
    assert set(SCALAR_CASES) == set(PAIRS)


@pytest.mark.parametrize("name,direction", PAIRS)
def test_apply_multiplies_in_the_exact_scalar(name, direction):
    build, factor = SCALAR_CASES[name, direction]
    d = build()
    rule = get_rule(name, direction)
    out = rule.apply(d, list(rule.iter_matches(d))[0])
    assert out.scalar == factor
    before = evaluate(d)
    assert np.abs(before).max() > 0.1  # not vacuous: a wrong factor shows
    assert exactly_equal(evaluate(out), before, tol=1e-12)


# ----------------------------------------------------------------------
# generic contracts


def test_deterministic_enumeration():
    rng = random.Random(9)
    for _ in range(20):
        d = random_diagram(rng)
        for name, direction in PAIRS:
            rule = get_rule(name, direction)
            once = list(rule.iter_matches(d))
            again = list(rule.iter_matches(d))
            assert once == again
            assert len(set(once)) == len(once)


@pytest.mark.parametrize("name,direction", PAIRS)
def test_lhs_instance_is_a_match(name, direction):
    """Each rule's lhs, every free leg sent to a fresh output, is a valid
    diagram on which the rule matches the instance's own vertices."""
    rule = get_rule(name, direction)
    for seed in range(50):
        rng = random.Random(seed)
        d = Diagram()
        legs = rule.lhs(d, rng, _phase_pool(rng))
        pattern = set(d.vertices())
        assert set(legs) <= pattern
        for v in legs:
            d.add_output(v)
        d.validate()
        matches = rule.iter_matches(d)
        assert any(set(m.vertex_ids) <= pattern for m in matches), (seed, serialize_zxg(d))


def test_apply_leaves_input_untouched():
    d, _ = chain((Z, Phase(1, 2)), (Z, Phase(1, 2)))
    from zxcalc.graph import serialize_zxg

    before = serialize_zxg(d)
    rule = get_rule("S1")
    rule.apply(d, list(rule.iter_matches(d))[0])
    assert serialize_zxg(d) == before


def test_stale_match_detected():
    d, (u, v) = chain((Z, Phase(0)), (Z, Phase(0)))
    rule = get_rule("S1")
    m = list(rule.iter_matches(d))[0]
    changed = rule.apply(d, m)
    with pytest.raises(StaleMatchError):
        rule.apply(changed, m)


def test_locality_disjoint_component_untouched():
    from zxcalc.protocols import ghz_state

    d = ghz_state().plugged("output", 0, "z+")
    spectator = ghz_state()
    combined = d.tensor(spectator)
    rule = get_rule("B1")
    m = list(rule.iter_matches(combined))[0]
    out = rule.apply(combined, m)
    # the spectator's vertices, phases and edges are bit-identical
    spec_ids = [v for v in combined.vertices() if v >= d._next_id]
    for v in spec_ids:
        assert out.types[v] == combined.types[v]
        assert out.phases.get(v) == combined.phases.get(v)
    spec_edges = [e for e in combined.edges if e[0] in spec_ids]
    assert [e for e in out.edges if e[0] in spec_ids] == spec_edges


# sha256 of "\n".join(repr([m.data for m in matches])) over every
# match list below; it pins the match sets and their order
MATCH_DIGEST = "2ea8bb7df03f28dbcd34dfba8dbdeeef910ed48b9fba822eb55fd5d8cf30f1a9"


def test_match_lists_pinned():
    diagrams = [parse_zxg(p.read_text()) for p in sorted(DIAGRAMS.glob("*.zxg"))]
    diagrams += lhs_samples()
    ladder = cnot()
    for _ in range(9):
        ladder = ladder.compose(cnot())
    diagrams.append(ladder)
    lines = [
        repr([m.data for m in get_rule(name, direction).iter_matches(d)])
        for d in diagrams
        for name, direction in PAIRS
    ]
    assert len(lines) == 6528
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MATCH_DIGEST


@pytest.mark.parametrize("name", ["S1", "B2", "C"])
@pytest.mark.parametrize("source", [FORWARD, BACKWARD])
def test_match_for_other_direction_is_stale(name, source):
    target = BACKWARD if source == FORWARD else FORWARD
    rng = random.Random(5)
    d = random_diagram(rng, max_vertices=4)
    embed_lhs(name, source, d, rng)
    rule = get_rule(name, source)
    m = list(rule.iter_matches(d))[0]
    for diagram in (d, rule.apply(d, m)):
        with pytest.raises(StaleMatchError):
            get_rule(name, target).apply(diagram, m)


@pytest.mark.parametrize(
    "name,direction",
    [p for p in PAIRS if p not in (("S1", BACKWARD), ("C", BACKWARD))],
)
def test_candidates_never_miss_a_match(name, direction):
    """iter_matches yields every vertex assignment to the roles that holds."""
    rng = random.Random(11)
    found = 0
    for _ in range(6):
        d = random_diagram(rng, max_vertices=5, max_boundaries=2)
        embed_lhs(name, direction, d, rng)
        rule = get_rule(name, direction)
        brute = set()
        for ids in itertools.product(d.vertices(), repeat=len(rule.roles)):
            m = Match(rule.name, tuple(sorted(zip(rule.roles, ids))))
            if rule.holds(d, m):
                brute.add(m)
        matches = list(rule.iter_matches(d))
        assert brute == set(matches)
        found += len(matches)
    assert found > 0


def test_get_rule_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown rule 'Q'$"):
        get_rule("Q")


def test_get_rule_missing_direction():
    with pytest.raises(ValueError, match=r"^rule D1 has no backward direction$"):
        get_rule("D1", BACKWARD)
