import hashlib
import itertools
import math

import numpy as np
import pytest

from zxcalc.semantics import born_probability, equal_up_to_scalar, evaluate
from zxcalc.protocols import (
    UNITARY_TABLES,
    cnot,
    ghz_class_state,
    ghz_measurement,
    ghz_state,
    pauli,
    qkd_check_lemmas,
    qkd_simulate,
    sdc_decode,
    sdc_n_ghz_verify,
    sdc_verify_all,
    w_state,
    wire,
)
from zxcalc.graph import Diagram, VertexType

from oracles import (
    CNOT_MAT,
    GHZ_VECTOR,
    I_SIGMA_Y,
    SIGMA_X,
    SIGMA_Z,
    W_VECTOR,
    exactly_equal,
    ghz_measurement_matrix,
    proportional,
    qkd_simulate_per_round,
    standard_form_vector,
)


# ----------------------------------------------------------------------
# states and gates


def test_ghz_state_vector():
    v = evaluate(ghz_state()).reshape(-1)
    assert proportional(v, GHZ_VECTOR)
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    assert list(nz) == [0, 7]
    assert abs(v[0] - v[7]) < 1e-12


def test_w_state_vector():
    v = evaluate(w_state()).reshape(-1)
    assert proportional(v, W_VECTOR)
    nz = np.nonzero(np.abs(v) > 1e-9)[0]
    assert list(nz) == [1, 2, 4]
    assert np.allclose(v[[1, 2]], v[[2, 4]], atol=1e-12)


def test_w_state_has_rational_phases_only():
    d = w_state()
    assert not d.inputs and len(d.outputs) == 3
    for v, phase in d.phases.items():
        assert phase.den >= 1  # exact rationals by construction
    d.validate()


def test_pauli_matrices():
    assert np.allclose(evaluate(pauli("I")), np.eye(2), atol=1e-12)
    assert np.allclose(evaluate(pauli("X")), SIGMA_X, atol=1e-12)
    assert np.allclose(evaluate(pauli("Z")), SIGMA_Z, atol=1e-12)
    assert np.allclose(evaluate(pauli("iY")), I_SIGMA_Y, atol=1e-12)
    assert np.allclose(evaluate(pauli("minus_iY")), -I_SIGMA_Y, atol=1e-12)
    with pytest.raises(ValueError):
        pauli("Y")


def test_cnot_involution():
    assert proportional(evaluate(cnot().compose(cnot())), np.eye(4))


def test_cnot_matches_table():
    assert proportional(evaluate(cnot()), CNOT_MAT, tol=1e-12)


# ----------------------------------------------------------------------
# GHZ-class states and the measurement circuit


@pytest.mark.parametrize("k", range(8))
@pytest.mark.parametrize("table", ["standard", "alternative"])
def test_ghz_class_states_match_standard_forms(k, table):
    v = evaluate(ghz_class_state(k, table)).reshape(-1)
    assert proportional(v, standard_form_vector(k))


@pytest.mark.parametrize("k", range(8))
def test_table_equivalence_unit_modulus(k):
    a = evaluate(ghz_class_state(k, "standard"))
    b = evaluate(ghz_class_state(k, "alternative"))
    verdict = equal_up_to_scalar(a, b)
    assert verdict.equal
    assert abs(abs(verdict.scalar) - 1.0) <= 1e-9


def test_unknown_table_is_a_value_error():
    for call in (lambda: sdc_decode(0, "bogus"), lambda: ghz_class_state(0, "x")):
        with pytest.raises(ValueError, match="expected one of \\('standard', 'alternative'\\)"):
            call()


def test_ghz_measurement_matches_circuit_oracle():
    for n in (2, 3, 4):
        assert proportional(
            evaluate(ghz_measurement(n)), ghz_measurement_matrix(n), tol=1e-9
        )
    with pytest.raises(ValueError):
        ghz_measurement(1)


def _composed_ghz_measurement(n: int) -> Diagram:
    """The GHZ-basis measurement as the circuit it fuses from: a layer for
    each CNOT from wire 1 onto wires 2..n, then a layer with H on wire 1."""

    def layer(gate: dict) -> Diagram:
        # a vertex of the given type on each gate wire, a plain wire elsewhere
        d = Diagram()
        pins = {k: d.add_vertex(ty) for k, ty in gate.items()}
        if len(pins) == 2:
            d.add_edge(*pins.values())
        for k in range(n):
            if k in pins:
                d.add_input(pins[k])
                d.add_output(pins[k])
            else:
                d.add_edge(d.add_input(), d.add_output())
        return d

    circuit = layer({})
    for target in range(1, n):
        circuit = circuit.compose(layer({0: VertexType.Z, target: VertexType.X}))
    return circuit.compose(layer({0: VertexType.H}))


@pytest.mark.parametrize("n", range(2, 8))
def test_fused_ghz_measurement_equals_the_circuit(n):
    assert exactly_equal(evaluate(ghz_measurement(n)), evaluate(_composed_ghz_measurement(n)))


def test_ghz_measurement_on_bell_state():
    bell = ghz_state(2)
    out = evaluate(bell.compose(ghz_measurement(2))).reshape(-1)
    # brute force: (H x I) CNOT (|00> + |11>) = sqrt(2) |00>
    assert proportional(out, [1, 0, 0, 0])


# ----------------------------------------------------------------------
# superdense coding


def test_sdc_decode_examples():
    assert sdc_decode(0) == (0, 0, 0)
    assert sdc_decode(5) == (1, 0, 1)
    assert sdc_decode(7) == (1, 1, 1)


def test_sdc_bijection_both_tables():
    for table in UNITARY_TABLES:
        decoded = [sdc_decode(k, table) for k in range(8)]
        values = [(b1 << 2) | (b2 << 1) | b3 for b1, b2, b3 in decoded]
        assert values == list(range(8))


def test_sdc_verify_all_sixteen_cases():
    report = sdc_verify_all()
    assert report.passed
    assert len(report.cases) == 16
    assert all(c.passed for c in report.cases)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sdc_n_ghz_distinct(n):
    report = sdc_n_ghz_verify(n)
    assert report.passed
    assert report.stats["distinct_outcomes"] == 2**n
    assert len(report.cases) == 2**n


def test_sdc_n_ghz_n3_matches_table_bits():
    # the eight encodings at n = 3 hit exactly the eight binary outcomes
    report = sdc_n_ghz_verify(3)
    outcomes = sorted(c.actual for c in report.cases)
    assert outcomes == [format(k, "03b") for k in range(8)]


def test_sdc_n_ghz_range_check():
    with pytest.raises(ValueError):
        sdc_n_ghz_verify(2)
    with pytest.raises(ValueError):
        sdc_n_ghz_verify(7)


# sha256 of sdc_verify_all().render() and of sdc_n_ghz_verify(n).render(),
# taken when each encoding was composed onto the GHZ state and evaluated alone
SDC_ALL_DIGEST = "9ed0ee088d1557a8b4b55b569b8a4ca2dfd695fdafd82c7b5bb9fd1e23ccef8e"
SDC_N_DIGESTS = {
    3: "a6b143cfc848d1254fd3b63aacbcbf41a41b07106269ce361c3748207424413b",
    4: "24b7fed3a24f5bdb8c8d6716e4b11ff821608b44c08557cf506768c67e96c749",
    5: "ea91008dd485654ccba864eb79e3269347c0308f5462fc23718d27da59714ddb",
    6: "377896dfdca2c83ad2c229605fb202299a7d74d03aab586537f70baba589885d",
}


def test_sdc_reports_pinned():
    text = sdc_verify_all().render()
    assert hashlib.sha256(text.encode()).hexdigest() == SDC_ALL_DIGEST
    for n, digest in SDC_N_DIGESTS.items():
        assert hashlib.sha256(sdc_n_ghz_verify(n).render().encode()).hexdigest() == digest


def _composed_encoding(layer: tuple[str, ...]) -> Diagram:
    """An encoding built and measured on its own: the Pauli wires composed
    onto the GHZ state, then the GHZ measurement."""
    paulis = wire()
    for name in layer:
        paulis = paulis.tensor(pauli(name))
    n = 1 + len(layer)
    return ghz_state(n).compose(paulis).compose(ghz_measurement(n))


def _composed_readout(d: Diagram, tol: float = 1e-9):
    """The basis-state readout of one evaluated diagram, as each encoding was
    read before they shared a template."""
    vec = evaluate(d).reshape(-1)
    idx = int(np.argmax(np.abs(vec)))
    rest = np.delete(np.abs(vec), idx)
    if np.max(rest) > tol * abs(vec[idx]):
        return None
    return idx


_SLOT_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "iY": (1, 1)}  # X(a pi), then Z(b pi)


def _slot_columns(layers) -> list[int]:
    """Each layer's column: its slot bits, over the slots some layer sets."""
    bits = [[b for name in layer for b in _SLOT_BITS[name]] for layer in layers]
    opened = [i for i in range(len(bits[0])) if any(row[i] for row in bits)]
    return [int("".join(str(row[i]) for i in opened) or "0", 2) for row in bits]


def test_sdc_template_matches_composed_encodings(monkeypatch):
    """Every layer of sdc_n_ghz_verify(3..6) and every table case of
    sdc_verify_all reads as its own composed diagram does, and its column of
    the one evaluated matrix is 2^(-c/2) times that diagram's matrix, c the
    number of slots opened to inputs; the layers of one n read a signed
    permutation matrix, times that scalar."""
    from zxcalc import protocols

    matrices = []

    def recording_evaluate(d, **kwargs):
        matrices.append(evaluate(d, **kwargs))
        return matrices[-1]

    monkeypatch.setattr(protocols, "evaluate", recording_evaluate)
    cases = [protocols._pauli_layers(n) for n in range(3, 7)]
    cases.append([pair for table in ("standard", "alternative") for pair in UNITARY_TABLES[table]])
    for layers in cases:
        readouts = protocols._sdc_readouts(layers, 1e-9)
        (m,) = matrices
        matrices.clear()
        columns = _slot_columns(layers)
        scale = 2 ** (-math.log2(m.shape[1]) / 2)
        assert len(readouts) == len(layers)
        for layer, column, idx in zip(layers, columns, readouts):
            composed = _composed_encoding(layer)
            assert idx is not None and idx == _composed_readout(composed), layer
            ref = scale * evaluate(composed).reshape(-1)
            assert np.max(np.abs(m[:, column] - ref)) <= 1e-12 * np.max(np.abs(ref)), layer
        read = np.abs(m[:, columns])
        if read.shape[0] == read.shape[1]:  # all 2^n layers of one n
            peak = np.max(np.abs(scale * evaluate(_composed_encoding(layers[0]))))
            perm = read > peak / 2
            assert (perm.sum(axis=0) == 1).all() and (perm.sum(axis=1) == 1).all()
            assert np.max(np.abs(read - peak * perm)) <= 1e-12 * peak


# ----------------------------------------------------------------------
# QKD lemmas


def test_qkd_lemma4_any_wire():
    w = w_state()
    target = np.zeros(4)
    target[0] = 1
    for i in range(3):
        rest = evaluate(w.plugged("output", i, "z-")).reshape(-1)
        assert proportional(rest, target)


def test_qkd_lemma5_amplitudes():
    w = w_state()
    for decider in range(3):
        others = [k for k in range(3) if k != decider]
        for s2, s3 in itertools.product("+-", repeat=2):
            labels = [""] * 3
            labels[decider] = "z+"
            labels[others[0]] = f"x{s2}"
            labels[others[1]] = f"x{s3}"
            p = born_probability(w, labels)
            if s2 == s3:
                assert p > 1e-9
            else:
                assert p <= 1e-9


def test_qkd_decider_plus_probability():
    # brute force on the normalised W vector: P(z+ on any wire) = 2/3
    w = w_state()
    for decider in range(3):
        marginal = 0.0
        others = [k for k in range(3) if k != decider]
        for s2, s3 in itertools.product("+-", repeat=2):
            labels = [""] * 3
            labels[decider] = "z+"
            labels[others[0]] = f"z{s2}"
            labels[others[1]] = f"z{s3}"
            marginal += born_probability(w, labels)
        assert marginal == pytest.approx(2 / 3, abs=1e-9)


def test_qkd_check_lemmas_report():
    report = qkd_check_lemmas()
    assert report.passed
    ids = [c.case_id for c in report.cases]
    assert any("z-minus" in i for i in ids)
    assert any("qkd_core" in i for i in ids)
    assert len([i for i in ids if "unequal" in i]) == 6


# ----------------------------------------------------------------------
# QKD Monte-Carlo


def test_qkd_simulate_seeded_run():
    report = qkd_simulate(10000, seed=7)
    assert report.passed
    assert report.stats["rounds"] == 10000
    # never an unequal shared bit
    unequal = [c for c in report.cases if "unequal" in c.case_id][0]
    assert unequal.actual == "0"


def test_qkd_simulate_deterministic():
    a = qkd_simulate(2000, seed=3).render()
    b = qkd_simulate(2000, seed=3).render()
    assert a == b
    c = qkd_simulate(2000, seed=4).render()
    assert a != c


def test_qkd_simulate_rates_across_seeds():
    for seed in (1, 2, 3):
        report = qkd_simulate(4000, seed=seed)
        assert report.passed, report.render()


def test_qkd_simulate_matches_born_statistics():
    # empirical decider-plus rate converges to the Born value 2/3
    report = qkd_simulate(20000, seed=11)
    rate = report.stats["decider_plus"] / report.stats["basis_accepted"]
    sigma = math.sqrt((2 / 3) * (1 / 3) / report.stats["basis_accepted"])
    assert abs(rate - 2 / 3) <= 3 * sigma


def test_qkd_simulate_eavesdrop_hook():
    checked = range(0, 1000, 10)
    report = qkd_simulate(1000, seed=5, eavesdrop_checks=checked)
    assert report.stats["sacrificed_rounds"] > 0
    baseline = qkd_simulate(1000, seed=5)
    key = sum(v for k, v in report.stats.items() if k.startswith("key_bits"))
    base_key = sum(v for k, v in baseline.stats.items() if k.startswith("key_bits"))
    assert key + report.stats["sacrificed_rounds"] == base_key


def test_qkd_simulate_rejects_bad_rounds():
    for rounds in (0, -3):
        with pytest.raises(ValueError):
            qkd_simulate(rounds)
    for rounds in (2.5, 0.5, "10", None):
        with pytest.raises(TypeError):
            qkd_simulate(rounds)


def _assert_same_as_per_round(rounds, seed, checks=None, again=None):
    """``qkd_simulate`` and the per-round oracle give equal round logs and
    reports; ``again`` is a second iterable of the same checks for the oracle,
    where ``checks`` can only be read once."""
    ours = qkd_simulate(rounds, seed=seed, eavesdrop_checks=checks)
    ref = qkd_simulate_per_round(rounds, seed, again if again is not None else checks)
    assert ours.rounds == ref.rounds, (rounds, seed)
    assert ours.render() == ref.render(), (rounds, seed)


def test_qkd_simulate_matches_per_round_loop():
    for seed in range(50):
        for rounds in (1, 2, 3, 7, 500, 4097, 10000):
            _assert_same_as_per_round(rounds, seed)


def test_qkd_simulate_matches_per_round_loop_across_chunks(monkeypatch):
    # 7-round chunks: words left after each chunk are carried over, and a
    # chunk whose words run short draws more
    from zxcalc import protocols

    monkeypatch.setattr(protocols, "_CHUNK", 7)
    for seed in range(50):
        for rounds in (1, 2, 3, 7, 500) if seed >= 10 else (1, 2, 3, 7, 500, 4097, 10000):
            _assert_same_as_per_round(rounds, seed)
        checks = [3, 3, -1, 6, 7, 8, 13, 14, 499, 500, 10**9]
        _assert_same_as_per_round(500, seed, iter(checks), checks)


def test_qkd_simulate_eavesdrop_checks_as_the_per_round_loop():
    checks = list(range(-50, 3000, 3)) + list(range(0, 3000, 7)) + [10**12, -(10**12)]
    for seed in range(5):
        # a generator is read once; duplicates, negatives and indices past
        # the last round mark nothing extra
        _assert_same_as_per_round(2000, seed, (r for r in checks), checks)
    report = qkd_simulate(2000, seed=0, eavesdrop_checks=(r for r in checks))
    assert report.stats["sacrificed_rounds"] > 0


def test_qkd_simulate_memory_does_not_grow_with_rounds():
    import sys
    import tracemalloc

    qkd_simulate(10)  # imports and first-call caches
    for rounds in (10000, 200000):
        tracemalloc.start()
        try:
            report = qkd_simulate(rounds, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond_log = peak - sys.getsizeof(report.rounds)
        assert beyond_log < 1.5e6, (rounds, beyond_log)


# sha256 of qkd_simulate(2000, seed=7).render() and qkd_check_lemmas().render(),
# taken when every Born probability still evaluated its own W state; the
# lemma digest was re-taken on the path-sum evaluator, whose float noise in the
# "unequal" residual lines (5.136e-34 and 0.000e+00) differs
QKD_SIMULATE_DIGEST = "e1e8d854c9508deb3595055ebcd53e82507189f0b08040383343a45a6b43b163"
QKD_LEMMAS_DIGEST = "6a4eacd2ac0bdff3c5e317ad8650bbe5cf778f713d4fec4241205adb4eed8447"
# sha256 of the round log of qkd_simulate(2000, seed=7): one repr of
# (bases, outcomes, accepted, decider, shared_bit) per round, newline-joined
QKD_ROUND_LOG_DIGEST = "761a4496689803fb3714360ea169670740bdfcd5425d0a413a397f145bbbd2ac"


def test_qkd_reports_pinned():
    text = qkd_simulate(2000, seed=7).render()
    assert hashlib.sha256(text.encode()).hexdigest() == QKD_SIMULATE_DIGEST
    text = qkd_check_lemmas().render()
    assert hashlib.sha256(text.encode()).hexdigest() == QKD_LEMMAS_DIGEST


def test_qkd_round_log_pinned():
    log = "\n".join(
        repr((r.bases, r.outcomes, r.accepted, r.decider, r.shared_bit))
        for r in qkd_simulate(2000, seed=7).rounds
    )
    assert hashlib.sha256(log.encode()).hexdigest() == QKD_ROUND_LOG_DIGEST


def test_qkd_evaluates_the_w_state_once(monkeypatch):
    from zxcalc import protocols

    calls = []

    def counting_evaluate(d, **kwargs):
        calls.append(d)
        return evaluate(d, **kwargs)

    monkeypatch.setattr(protocols, "evaluate", counting_evaluate)
    qkd_simulate(100, seed=1)
    assert len(calls) == 1
    qkd_simulate(100, seed=2)
    assert len(calls) == 2
    qkd_check_lemmas()
    assert len(calls) == 2 + 4  # three plugged W states, then the W state itself


def test_qkd_round_log_invariants():
    report = qkd_simulate(3000, seed=9)
    rounds = report.rounds
    assert len(rounds) == 3000
    one_z = {("z", "x", "x"), ("x", "z", "x"), ("x", "x", "z")}
    for r in rounds:
        assert set(r.bases) <= {"z", "x"} and set(r.outcomes) <= {"+", "-"}
        # accepted iff one-z pattern and the decider outcome is +
        should_accept = r.bases in one_z and r.outcomes[r.bases.index("z")] == "+"
        assert r.accepted == should_accept
        if r.accepted:
            assert r.decider == r.bases.index("z")
            xs = [r.outcomes[k] for k in range(3) if k != r.decider]
            assert xs[0] == xs[1]
            assert r.shared_bit == (0 if xs[0] == "+" else 1)
        else:
            assert r.shared_bit is None


def test_n3_generates_exactly_2n_of_the_conceivable_combinations():
    # 4^(n-1) conceivable unitary pairs at n = 3, of which only half
    # (2^n = 8) are generated, and they are pairwise distinguishable
    from zxcalc.protocols import _pauli_layers

    layers = list(_pauli_layers(3))
    assert len(layers) == 8
    assert 4 ** (3 - 1) == 16
    assert len(set(layers)) == 8


# ----------------------------------------------------------------------
# report formatting


def test_report_machine_lines():
    report = sdc_verify_all()
    lines = report.machine_lines()
    assert len(lines) == 16
    for line in lines:
        parts = [p.strip() for p in line.split("|")]
        assert len(parts) == 4
        assert parts[3] in ("pass", "FAIL")


def test_ghz_class_index_must_be_an_integer():
    """A k that ``operator.index`` refuses, or a bool, is a TypeError before
    the range check; an integer of another type decodes as its value."""
    for k in (2.5, "1", True, 7.0):
        for call in (sdc_decode, ghz_class_state):
            with pytest.raises(TypeError, match="integer"):
                call(k)
    assert sdc_decode(np.int64(3)) == sdc_decode(3)
    assert np.array_equal(evaluate(ghz_class_state(np.int64(3))), evaluate(ghz_class_state(3)))
    with pytest.raises(ValueError, match="0..7"):
        sdc_decode(np.int64(8))


# ----------------------------------------------------------------------
# Born values: the one-pass table against the per-label reference


def test_born_table_equals_the_per_label_reference(monkeypatch):
    """``_born`` over the constant ``_BRAS`` gives, cell by cell and bit for
    bit, what building each bra from its labels and taking one ``np.dot``
    gives: on the W state and on 20 seeded random 3-qubit states, for the
    running sums the simulator draws against, for ``born_probability`` on
    all 64 label triples, and for the 12 lemma (b) values."""
    from zxcalc import protocols
    from zxcalc.protocols import _BRAS, _LABELS
    from zxcalc.semantics import _born, _scaled_state

    from oracles import born_scaled_reference

    rng = np.random.default_rng(5)
    states = [evaluate(w_state()).reshape(-1)]
    states += [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(20)]
    for vec in states:
        scaled = _scaled_state(vec)
        ours = _born(*scaled, _BRAS)
        ref = [born_scaled_reference(*scaled, labels) for labels in _LABELS]
        assert [p.hex() for p in ours] == [p.hex() for p in ref]
        running = [acc for row in np.reshape(ref, (8, 8)) for acc in itertools.accumulate(row)]
        sums = np.cumsum(np.reshape(ours, (8, 8)), axis=1).ravel().tolist()
        assert [p.hex() for p in sums] == [p.hex() for p in running]

    w = w_state()
    w_scaled = _scaled_state(evaluate(w).reshape(-1))
    for labels in _LABELS:
        assert born_probability(w, labels).hex() == born_scaled_reference(*w_scaled, labels).hex()

    seen = []

    def recording_born(vec, norm_sq, bras):
        values = _born(vec, norm_sq, bras)
        seen.extend(zip(map(tuple, bras), values))
        return values

    monkeypatch.setattr(protocols, "_born", recording_born)
    assert qkd_check_lemmas().passed
    assert len(seen) == 12
    for bra, value in seen:
        labels = _LABELS[[tuple(row) for row in _BRAS].index(bra)]
        assert labels.count("z+") == 1 and all(label[0] == "x" for label in labels if label != "z+")
        assert value.hex() == born_scaled_reference(*w_scaled, labels).hex()


def test_qkd_simulate_matches_per_round_loop_at_chunk_edges():
    # one round short of, exactly at and one past the default chunk, and a
    # count that takes three whole chunks and one round more
    from zxcalc import protocols

    assert protocols._CHUNK == 2048
    for seed in range(10):
        for rounds in (2047, 2048, 2049, 6145):
            _assert_same_as_per_round(rounds, seed)
            checks = range(seed, rounds + 5, 3)
            _assert_same_as_per_round(rounds, seed, checks)
