import math
import random
from pathlib import Path

import numpy as np
import pytest

from zxcalc.graph import Diagram, VertexType, parse_zxg, serialize_zxg
from zxcalc.phase import Phase, Scalar
from zxcalc.semantics import (
    ResourceLimitError,
    born_probability,
    equal_up_to_scalar,
    evaluate,
    spider_tensor,
)
from zxcalc.protocols import cnot, ghz_state, pauli, w_state, wire

from oracles import (
    CNOT_MAT,
    H_MAT,
    I_SIGMA_Y,
    SIGMA_X,
    SIGMA_Z,
    SWAP,
    W_VECTOR,
    proportional,
    x_spider_matrix,
    z_spider_matrix,
)
from reference_evaluator import reference_evaluate
from reference_evaluator import spider_tensor as reference_spider_tensor

Z, X = VertexType.Z, VertexType.X
DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"

GENERIC_PHASES = [Phase(0), Phase(1, 2), Phase(1), Phase(3, 2), Phase(1, 3), Phase(5, 4)]


def spider_diagram(ty, phase, n_in, n_out):
    d = Diagram()
    v = d.add_vertex(ty, phase)
    for _ in range(n_in):
        d.add_input(v)
    for _ in range(n_out):
        d.add_output(v)
    return d


# ----------------------------------------------------------------------
# generator fidelity (the interpretation table, entrywise)


def test_identity_wire():
    assert np.allclose(evaluate(wire()), np.eye(2), atol=1e-12)


def test_hadamard_vertex():
    d = Diagram()
    h = d.add_vertex(VertexType.H)
    d.add_input(h)
    d.add_output(h)
    assert np.allclose(evaluate(d), H_MAT, atol=1e-12)


def test_swap_crossing():
    d = Diagram()
    i1, i2 = (d.add_vertex(VertexType.BOUNDARY) for _ in range(2))
    o1, o2 = (d.add_vertex(VertexType.BOUNDARY) for _ in range(2))
    d.add_edge(i1, o2)
    d.add_edge(i2, o1)
    d.inputs, d.outputs = [i1, i2], [o1, o2]
    assert np.allclose(evaluate(d), SWAP, atol=1e-12)


def test_bell_state_and_effect():
    d = Diagram()
    a, b = (d.add_vertex(VertexType.BOUNDARY) for _ in range(2))
    d.add_edge(a, b)
    d.outputs = [a, b]
    assert np.allclose(evaluate(d).reshape(-1), [1, 0, 0, 1], atol=1e-12)
    d.outputs, d.inputs = [], [a, b]
    assert np.allclose(evaluate(d).reshape(-1), [1, 0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("phase", GENERIC_PHASES)
@pytest.mark.parametrize("n_in,n_out", [(1, 1), (2, 1), (1, 2), (0, 3), (2, 2)])
def test_z_spider_map(phase, n_in, n_out):
    d = spider_diagram(Z, phase, n_in, n_out)
    assert np.allclose(
        evaluate(d), z_spider_matrix(n_in, n_out, phase.radians), atol=1e-12
    )


@pytest.mark.parametrize("phase", GENERIC_PHASES)
@pytest.mark.parametrize("n_in,n_out", [(1, 1), (2, 1), (1, 2), (0, 3), (2, 2)])
def test_x_spider_map(phase, n_in, n_out):
    d = spider_diagram(X, phase, n_in, n_out)
    assert np.allclose(
        evaluate(d), x_spider_matrix(n_in, n_out, phase.radians), atol=1e-12
    )


@pytest.mark.parametrize("phase", GENERIC_PHASES)
def test_z_phase_gate_matrix(phase):
    d = spider_diagram(Z, phase, 1, 1)
    expected = np.diag([1, np.exp(1j * phase.radians)])
    assert np.allclose(evaluate(d), expected, atol=1e-12)


def test_x_phase_gate_at_clifford_points():
    # at 0 and pi the printed closed forms are exact: identity and sigma_x
    assert np.allclose(evaluate(spider_diagram(X, Phase(0), 1, 1)), np.eye(2), atol=1e-12)
    assert np.allclose(evaluate(spider_diagram(X, Phase(1), 1, 1)), SIGMA_X, atol=1e-12)


def test_diamond_scalar():
    d = parse_zxg("node d D\n")
    assert d.num_vertices() == 0 and d.scalar == Scalar(1)
    assert np.allclose(evaluate(d), [[math.sqrt(2)]], atol=1e-12)


@pytest.mark.parametrize("phase", GENERIC_PHASES)
def test_z_point(phase):
    d = spider_diagram(Z, phase, 0, 1)
    expected = np.array([1, np.exp(1j * phase.radians)]).reshape(2, 1)
    assert np.allclose(evaluate(d), expected, atol=1e-12)


@pytest.mark.parametrize("phase", GENERIC_PHASES)
def test_x_point(phase):
    d = spider_diagram(X, phase, 0, 1)
    assert np.allclose(evaluate(d), x_spider_matrix(0, 1, phase.radians), atol=1e-12)


def test_x_point_basis_states():
    # |0> and |1> up to scalar, as used for plugging
    assert proportional(evaluate(spider_diagram(X, Phase(0), 0, 1)), [[1], [0]])
    assert proportional(evaluate(spider_diagram(X, Phase(1), 0, 1)), [[0], [1]])


def test_zero_legged_spiders_are_scalars():
    for ty in (Z, X):
        d = spider_diagram(ty, Phase(1, 3), 0, 0)
        assert np.allclose(evaluate(d), [[1 + np.exp(1j * math.pi / 3)]], atol=1e-12)


def test_cnot_matrix():
    assert proportional(evaluate(cnot()), CNOT_MAT, tol=1e-12)


def test_pauli_composites_exact():
    # sigma_z after sigma_x is exactly i*sigma_y; the other order negates it
    assert np.allclose(evaluate(pauli("iY")), I_SIGMA_Y, atol=1e-12)
    assert np.allclose(evaluate(pauli("minus_iY")), -I_SIGMA_Y, atol=1e-12)
    assert np.allclose(evaluate(pauli("Z")), SIGMA_Z, atol=1e-12)
    assert np.allclose(evaluate(pauli("X")), SIGMA_X, atol=1e-12)


def test_self_loop_contracts_to_trace():
    d = Diagram()
    z = d.add_vertex(Z, Phase(1, 2))
    d.add_edge(z, z)
    assert np.allclose(evaluate(d), [[1 + 1j]], atol=1e-12)
    # a looped spider with legs equals the plain spider
    d2 = spider_diagram(X, Phase(1, 3), 1, 1)
    looped = d2.copy()
    looped.add_edge(looped.vertices()[0], looped.vertices()[0])
    assert np.allclose(evaluate(looped), evaluate(d2), atol=1e-12)


# ----------------------------------------------------------------------
# contraction machinery


def test_contraction_orders_agree():
    from zxcalc.rewrite import random_diagram

    rng = random.Random(5)
    for _ in range(200):
        d = random_diagram(rng, max_vertices=10, max_boundaries=4)
        a = evaluate(d)
        b = _reference_with_scalar(d, order="sequential")
        scale = max(1.0, float(np.max(np.abs(a))))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_qubit_cap():
    with pytest.raises(ResourceLimitError, match="interface has 15 wires, exceeding the cap of 14"):
        evaluate(ghz_state(15))
    assert evaluate(ghz_state(6)).shape == (64, 1)
    with pytest.raises(ResourceLimitError, match="interface has 6 wires, exceeding the cap of 4"):
        evaluate(ghz_state(6), max_qubits=4)


def _reference_with_scalar(d, **kwargs):
    """The frozen evaluator ignores the diagram's scalar: multiply it in as
    ``evaluate`` does, only when it is not 1."""
    m = reference_evaluate(d, **kwargs)
    return m if d.scalar == Scalar() else m * complex(d.scalar)


def _ladder(n):
    d = cnot()
    for _ in range(n - 1):
        d = d.compose(cnot())
    return d


def _guard_corpus():
    from zxcalc.rewrite.rules import BACKWARD, FORWARD, RULE_NAMES
    from zxcalc.rewrite.soundness import embed_lhs, random_diagram

    diagrams = [parse_zxg(p.read_text()) for p in sorted(DIAGRAMS.glob("*.zxg"))]
    pairs = [(name, FORWARD) for name in RULE_NAMES] + [
        (name, BACKWARD) for name in ("S1", "B2", "C")
    ]
    assert len(pairs) == 16
    rng = random.Random(3)
    for name, direction in pairs:
        for _ in range(20):
            d = random_diagram(rng)
            embed_lhs(name, direction, d, rng)
            diagrams.append(d)
    diagrams += [_ladder(n) for n in (1, 2, 3, 5, 8, 13, 21, 34, 40)]
    return diagrams


def _self_loop_diagram():
    d = Diagram()
    z = d.add_vertex(Z, Phase(1, 4))
    x = d.add_vertex(X, Phase(1, 3))
    d.add_edge(z, z)
    d.add_edge(z, x)
    d.add_edge(x, x)
    d.add_edge(x, x)
    d.add_edge(z, x)
    d.add_input(z)
    d.add_output(x)
    d.add_output(z)
    return d


def _triangle():
    # three spiders joined pairwise: merging any two of them leaves the
    # third's heap entries with both of them stale
    d = Diagram()
    a, b, c = d.add_vertex(Z, Phase(1, 2)), d.add_vertex(X), d.add_vertex(Z, Phase(1))
    for u, v in ((a, b), (a, c), (b, c), (a, b)):
        d.add_edge(u, v)
    for v in (a, b, c):
        d.add_output(v)
    return d


def _assert_agrees_with_reference(diagrams):
    """Where the frozen dense evaluator returns, ``evaluate`` returns the same
    shape within 1e-12 relative; where ``evaluate`` raises, so does it."""
    for d in diagrams:
        for cap in (4, 14):
            try:
                m = evaluate(d, max_qubits=cap)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    _reference_with_scalar(d, order="greedy", max_qubits=cap)
                continue
            try:
                ref = _reference_with_scalar(d, order="greedy", max_qubits=cap)
            except ResourceLimitError:
                continue  # the path sum evaluates some diagrams the dense one refuses
            assert m.shape == ref.shape, serialize_zxg(d)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(m - ref)) <= 1e-12 * scale, serialize_zxg(d)


def test_evaluate_bitwise_matches_reference():
    """Random samples with embedded rule patterns agree with the frozen
    evaluator.  The name is kept from when the two were bitwise identical;
    the path sum adds in another order, so the check is 1e-12 relative."""
    _assert_agrees_with_reference(_guard_corpus())


def test_evaluate_bitwise_matches_reference_on_long_ladders_and_loops():
    """A long ladder, self-loops and a triangle agree with the frozen
    evaluator, within 1e-12 relative as above."""
    _assert_agrees_with_reference([_ladder(59), _self_loop_diagram(), _triangle()])


def test_class_in_more_factors_than_one_einsum_takes():
    # X spiders joined to c and to one pair of u's each: once they are summed
    # out, c is held by 66 three-variable factors, more than numpy's einsum
    # takes in one call, so they are multiplied in batches
    import itertools

    k, a, b, x = 12, Phase(1, 3), Phase(1, 5), Phase(1, 7)
    d = Diagram()
    c = d.add_vertex(Z, a)
    us = [d.add_vertex(Z, b) for _ in range(k)]
    pairs = list(itertools.combinations(range(k), 2))
    for i, j in pairs:
        v = d.add_vertex(X, x)
        for t in (c, us[i], us[j]):
            d.add_edge(v, t)
    # oracle: sum over c and the u's, each X spider summed out by hand as
    # 1 + e^{ix} (-1)^(c + u_i + u_j), over 2**(3 * 66 / 2) for the H edges
    bits = np.array(list(itertools.product((0, 1), repeat=k + 1)))
    terms = np.exp(1j * (a.radians * bits[:, 0] + b.radians * bits[:, 1:].sum(axis=1)))
    for i, j in pairs:
        parity = bits[:, 0] + bits[:, i + 1] + bits[:, j + 1]
        terms = terms * (1 + np.exp(1j * x.radians) * (-1.0) ** parity)
    want = terms.sum() / 2 ** (3 * len(pairs) / 2)
    got = evaluate(d)[0, 0]
    assert abs(got - want) <= 1e-12 * abs(want)


def test_safe_simplified_ladder_evaluates():
    # one Z-X pair joined by 59 parallel edges, spiders of 61 legs
    from zxcalc.rewrite import simplify

    d = _ladder(59)
    out, _ = simplify(d, "safe")
    assert max(out.degree(v) for v in out.vertices()) == 61
    m = evaluate(out)
    verdict = equal_up_to_scalar(m, CNOT_MAT)
    assert verdict.equal and verdict.scalar != 0
    assert np.max(np.abs(m - evaluate(d))) <= 1e-12 * np.max(np.abs(m))


def test_parallel_edges_evaluate_in_little_memory():
    import tracemalloc

    d = Diagram()
    z, x = d.add_vertex(Z), d.add_vertex(X)
    for _ in range(20):
        d.add_edge(z, x)
    tracemalloc.start()
    try:
        m = evaluate(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # an even number of H edges cancels: (1 + 1) * (1 + 1) / sqrt(2)**20
    assert m.shape == (1, 1) and abs(m[0, 0] - 4 / 2**10) <= 1e-15


def test_wide_elimination_is_refused_before_allocating():
    import tracemalloc

    # twenty spiders joined pairwise through H boxes: every variable has
    # nineteen neighbours, so the first elimination is 19 wide
    d = Diagram()
    spiders = [d.add_vertex(Z) for _ in range(20)]
    for i, u in enumerate(spiders):
        for v in spiders[i + 1 :]:
            h = d.add_vertex(VertexType.H)
            d.add_edge(u, h)
            d.add_edge(h, v)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="19 wires exceeds the cap of 14"):
            evaluate(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 2**19 intermediate would take 8 MiB


def test_phase_no_float_holds_is_refused():
    d = ghz_state(2)
    (z,) = d.phases
    d.phases[z] = Phase(2 * 10**400 - 1, 10**400)  # exact, but no float holds its parts
    with pytest.raises(ResourceLimitError, match="a phase is out of floating-point range"):
        evaluate(d)


def test_value_out_of_float_range_is_refused():
    d = Diagram()
    for _ in range(1100):
        d.add_vertex(Z)  # each is the scalar 2
    with pytest.raises(ResourceLimitError, match="floating-point range"):
        evaluate(d)
    small = Diagram()
    for _ in range(1000):
        small.add_vertex(Z)
    assert evaluate(small)[0, 0] == 2.0**1000


def test_scalar_out_of_float_range_is_refused():
    # the scalar alone overflows when it is turned into a float
    d = wire()
    d.scalar = Scalar(5000)
    with pytest.raises(ResourceLimitError, match="floating-point range"):
        evaluate(d)
    d.scalar = Scalar(2000)
    assert evaluate(d)[0, 0] == 2.0**1000


def test_value_below_float_range_is_refused_not_zeroed():
    # a diagram's scalar is never zero, so a scale that underflows to 0 would
    # print a wrong all-zero matrix
    d = wire()
    d.scalar = Scalar(-5000)
    with pytest.raises(ResourceLimitError, match="the value is out of floating-point range"):
        evaluate(d)
    # two Z(0) spiders on a wire, joined through 2,200 parallel H boxes: the
    # H boxes cancel in pairs, leaving 2**-1100 times the all-ones matrix
    d = Diagram()
    a, b = d.add_vertex(Z), d.add_vertex(Z)
    d.add_input(a)
    d.add_output(b)
    for _ in range(2200):
        h = d.add_vertex(VertexType.H)
        d.add_edge(a, h)
        d.add_edge(h, b)
    with pytest.raises(ResourceLimitError, match="the value is out of floating-point range"):
        evaluate(d)


def test_subnormal_value_is_refused():
    # 2^-1050 W has amplitudes near 4e-317: subnormal, with fewer significant
    # bits, so its Born probabilities would read differently from W's
    d = w_state()
    d.scalar = Scalar(-2100)
    with pytest.raises(ResourceLimitError, match="the value is out of floating-point range"):
        evaluate(d)
    with pytest.raises(ResourceLimitError, match="the value is out of floating-point range"):
        born_probability(d, ["x+", "x-", "z-"])
    d.scalar = Scalar(-2040)  # 2^-1020 W: its largest amplitude is normal
    assert np.abs(evaluate(d)).max() > 0
    assert born_probability(d, ["x+", "x-", "z-"]) == born_probability(w_state(), ["x+", "x-", "z-"])


def test_long_ladder_is_identity():
    m = evaluate(_ladder(200))
    # the scalar is 2**-100, below any absolute tolerance: compare normalised
    assert proportional(m / np.max(np.abs(m)), np.eye(4))


def test_spider_tensors_are_shared_read_only():
    t = spider_tensor(X, Phase(1, 3), 3)
    with pytest.raises(ValueError):
        t[0, 0, 0] = 0
    assert np.array_equal(spider_tensor(X, Phase(1, 3), 3), t)
    assert np.array_equal(t, reference_spider_tensor(X, Phase(1, 3), 3))


def test_evaluate_result_is_private():
    scalar = Diagram()
    scalar.add_vertex(X, Phase(1, 4))  # its cached tensor is the whole network
    for d, degree in ((scalar, 0), (spider_diagram(X, Phase(1, 4), 1, 1), 2)):
        used = spider_tensor(X, Phase(1, 4), degree)
        before = used.copy()
        m = evaluate(d)
        assert m.flags.writeable
        assert not np.shares_memory(m, used)
        m[...] = 7
        assert np.array_equal(used, before)


def test_entries_finite_on_random_diagrams():
    from zxcalc.rewrite import random_diagram

    rng = random.Random(12)
    for _ in range(100):
        m = evaluate(random_diagram(rng))
        assert np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))


# ----------------------------------------------------------------------
# equality up to scalar


def test_equal_up_to_scalar_recovers_scalar():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    verdict = equal_up_to_scalar(3j * m, m)
    assert verdict.equal
    assert verdict.scalar == pytest.approx(3j)


def test_equal_up_to_scalar_rejects_different_paulis():
    assert not equal_up_to_scalar(SIGMA_X, SIGMA_Z).equal


def test_equal_up_to_scalar_zero_cases():
    z = np.zeros((2, 2))
    assert equal_up_to_scalar(z, z).equal
    assert equal_up_to_scalar(z, z).scalar is None
    assert not equal_up_to_scalar(SIGMA_X, z).equal
    assert not equal_up_to_scalar(z, SIGMA_X).equal


def test_equal_up_to_scalar_dimension_mismatch():
    with pytest.raises(ValueError):
        equal_up_to_scalar(np.eye(2), np.eye(4))


def test_equal_up_to_scalar_residual_bound():
    m = np.eye(2, dtype=complex)
    off = m + 1e-6
    verdict = equal_up_to_scalar(off, m, tol=1e-9)
    assert not verdict.equal
    assert verdict.max_residual >= 1e-6 / 2


def test_equal_up_to_scalar_at_any_scale():
    # the 200-CNOT ladder is 2**-100 times the identity on two wires
    two_wires = wire().tensor(wire())
    verdict = equal_up_to_scalar(evaluate(_ladder(200)), evaluate(two_wires))
    assert verdict.equal and verdict.max_residual == 0
    assert verdict.scalar == pytest.approx(2.0**-100, rel=1e-12)


def test_equal_up_to_scalar_tiny_matrices_still_differ():
    # four spiders of phase 999/1000 pi shrink both maps to about 1e-10
    tiny = Diagram()
    for _ in range(4):
        tiny.add_vertex(Z, Phase(999, 1000))
    swap = Diagram()
    i1, i2, o1, o2 = (swap.add_vertex(VertexType.BOUNDARY) for _ in range(4))
    swap.add_edge(i1, o2)
    swap.add_edge(i2, o1)
    swap.inputs, swap.outputs = [i1, i2], [o1, o2]
    a, b = evaluate(cnot().tensor(tiny)), evaluate(swap.tensor(tiny))
    assert np.max(np.abs(a)) < 1e-9
    verdict = equal_up_to_scalar(a, b)
    assert not verdict.equal and verdict.scalar is not None


# ----------------------------------------------------------------------
# Born probabilities


def test_born_w_state_values():
    w = w_state()
    # oracle: brute force on the hand-written state vector
    psi = W_VECTOR / np.linalg.norm(W_VECTOR)
    bra = np.zeros(8)
    bra[0b100] = 1  # z- z+ z+
    assert born_probability(w, ["z-", "z+", "z+"]) == pytest.approx(
        abs(np.dot(bra, psi)) ** 2, abs=1e-9
    )
    assert born_probability(w, ["z-", "z+", "z+"]) == pytest.approx(1 / 3, abs=1e-9)


def test_born_probability_is_scale_invariant():
    """The state's scale changes no bit of the probability: 2^-50 W once read
    as a zero-norm state, and 2^800 W overflowed when squared.  2^-1020 W is
    the smallest such scale whose largest amplitude is still a normal float."""
    for power in (0, 100, -100, 1600, -1600, -2040):  # the scalar is sqrt(2)^power
        w = w_state()
        w.scalar = Scalar(power)
        assert born_probability(w, ["z+", "z+", "z-"]) == 1 / 3, power


def test_born_w_state_vanishing_cross_term():
    assert born_probability(w_state(), ["z+", "x+", "x-"]) == pytest.approx(0, abs=1e-9)


def test_born_completeness():
    import itertools

    for state in (w_state(), ghz_state()):
        for bases in (("z", "z", "z"), ("z", "x", "x"), ("x", "x", "x")):
            total = 0.0
            for signs in itertools.product("+-", repeat=3):
                labels = [b + s for b, s in zip(bases, signs)]
                total += born_probability(state, labels)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_born_errors():
    with pytest.raises(ValueError):
        born_probability(w_state(), ["z+", "z+"])
    with pytest.raises(ValueError):
        born_probability(cnot(), ["z+", "z+"])
    zero = Diagram()
    zero.add_vertex(VertexType.Z, Phase.pi())  # scalar 1 + e^{i pi} = 0
    v = zero.add_vertex(VertexType.Z, Phase.zero())
    zero.add_output(v)
    with pytest.raises(ValueError):
        born_probability(zero, ["z+"])
