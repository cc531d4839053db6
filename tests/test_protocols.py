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
    standard_form_vector,
    w_state,
)

from oracles import (
    CNOT_MAT,
    GHZ_VECTOR,
    I_SIGMA_Y,
    SIGMA_X,
    SIGMA_Z,
    W_VECTOR,
    ghz_measurement_matrix,
    proportional,
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


def test_ghz_measurement_matches_circuit_oracle():
    for n in (2, 3, 4):
        assert proportional(
            evaluate(ghz_measurement(n)), ghz_measurement_matrix(n), tol=1e-9
        )
    with pytest.raises(ValueError):
        ghz_measurement(1)


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
    with pytest.raises(ValueError):
        qkd_simulate(0)


# sha256 of qkd_simulate(2000, seed=7).render() and qkd_check_lemmas().render(),
# taken when every Born probability still evaluated its own W state; the
# lemma digest was re-taken on the path-sum evaluator, whose float noise in the
# "unequal" residual lines (5.136e-34 and 0.000e+00) differs
QKD_SIMULATE_DIGEST = "e1e8d854c9508deb3595055ebcd53e82507189f0b08040383343a45a6b43b163"
QKD_LEMMAS_DIGEST = "6a4eacd2ac0bdff3c5e317ad8650bbe5cf778f713d4fec4241205adb4eed8447"


def test_qkd_reports_pinned():
    text = qkd_simulate(2000, seed=7).render()
    assert hashlib.sha256(text.encode()).hexdigest() == QKD_SIMULATE_DIGEST
    text = qkd_check_lemmas().render()
    assert hashlib.sha256(text.encode()).hexdigest() == QKD_LEMMAS_DIGEST


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
