"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import random

import numpy as np

from zxcalc.graph import Diagram, VertexType, parse_zxg, serialize_zxg
from zxcalc.phase import Phase
from zxcalc.semantics import born_probability, equal_up_to_scalar, evaluate
from zxcalc.rewrite import (
    DERIVATION_NAMES,
    RULE_NAMES,
    check_soundness,
    random_diagram,
    replay_derivation,
)
from zxcalc.rewrite.derivations import expected_final
from zxcalc.protocols import (
    cnot,
    ghz_class_state,
    qkd_simulate,
    sdc_n_ghz_verify,
    sdc_verify_all,
    w_state,
)

from cli_process import run_cli_process
from oracles import (
    CNOT_MAT,
    H_MAT,
    SWAP,
    isomorphic,
    x_spider_matrix,
    z_spider_matrix,
)

Z, X = VertexType.Z, VertexType.X


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def _spider(ty, phase, n_in, n_out):
    d = Diagram()
    v = d.add_vertex(ty, phase)
    for _ in range(n_in):
        d.add_input(v)
    for _ in range(n_out):
        d.add_output(v)
    return d


def _boundary_only(edges, n_in, n_out):
    d = Diagram()
    pins = [d.add_vertex(VertexType.BOUNDARY) for _ in range(n_in + n_out)]
    for a, b in edges:
        d.add_edge(pins[a], pins[b])
    d.inputs = pins[:n_in]
    d.outputs = pins[n_in:]
    return d


def test_criterion_1_generator_fidelity():
    """Each interpretation-table entry, entrywise to 1e-12."""
    tol = 1e-12
    alpha = Phase(1, 3)
    a = alpha.radians
    entries = {
        "identity wire": (_boundary_only([(0, 1)], 1, 1), np.eye(2)),
        "swap": (_boundary_only([(0, 3), (1, 2)], 2, 2), SWAP),
        "bell state": (_boundary_only([(0, 1)], 0, 2), np.array([[1], [0], [0], [1]])),
        "bell effect": (_boundary_only([(0, 1)], 2, 0), np.array([[1, 0, 0, 1]])),
        "Z spider map": (_spider(Z, alpha, 2, 1), z_spider_matrix(2, 1, a)),
        "X spider map": (_spider(X, alpha, 2, 1), x_spider_matrix(2, 1, a)),
        "Z phase gate": (_spider(Z, alpha, 1, 1), np.diag([1, np.exp(1j * a)])),
        "X gate at pi": (_spider(X, Phase(1), 1, 1), np.array([[0, 1], [1, 0]])),
        "Z point": (_spider(Z, alpha, 0, 1), np.array([[1], [np.exp(1j * a)]])),
        "X point": (_spider(X, alpha, 0, 1), x_spider_matrix(0, 1, a)),
    }
    d = Diagram()
    h = d.add_vertex(VertexType.H)
    d.add_input(h)
    d.add_output(h)
    entries["Hadamard"] = (d, H_MAT)
    entries["diamond"] = (parse_zxg("node d D\n"), np.array([[math.sqrt(2)]]))

    worst = 0.0
    for name, (diagram, expected) in entries.items():
        got = evaluate(diagram)
        residual = float(np.max(np.abs(got - np.asarray(expected, dtype=complex))))
        worst = max(worst, residual)
        assert residual <= tol, f"{name}: residual {residual:.2e}"

    cnot_verdict = equal_up_to_scalar(evaluate(cnot()), CNOT_MAT, tol=1e-12)
    verdict(
        1,
        worst <= tol and cnot_verdict.equal,
        f"{len(entries)} generator entries entrywise (worst {worst:.2e}); "
        f"CNOT up to scalar (residual {cnot_verdict.max_residual:.2e})",
    )


def test_criterion_2_rule_soundness():
    """Each rule, 200 randomized instances per seed, seeds 1..5, tol 1e-9."""
    failures = 0
    checks = 0
    for name in RULE_NAMES:
        for seed in (1, 2, 3, 4, 5):
            report = check_soundness(name, samples=200, seed=seed, tol=1e-9)
            assert report.checks > 0, f"{name} seed {seed}: vacuous run"
            failures += len(report.failures)
            checks += report.checks
    verdict(
        2,
        failures == 0,
        f"{len(RULE_NAMES)} rules x 5 seeds: {checks} applications, {failures} failures",
    )


def test_criterion_3_derivation_replays():
    """All scripted replays succeed; finals match the stated closed forms."""
    results = []
    for name in DERIVATION_NAMES:
        trace = replay_derivation(name)  # verifies each step and the final
        final = evaluate(parse_zxg(trace.steps[-1].snapshot))
        ok = equal_up_to_scalar(final, expected_final(name)).equal
        results.append((name, ok, len(trace)))
    all_ok = all(ok for _, ok, _ in results)
    detail = ", ".join(f"{n}({s})" for n, ok, s in results)
    verdict(3, all_ok, f"replays with verified finals: {detail}")


def test_criterion_4_sdc_sixteen_cases():
    """sdc_decode(k) = binary(k) for k in 0..7 under both tables."""
    report = sdc_verify_all(tol=1e-9)
    n_pass = sum(c.passed for c in report.cases)
    verdict(4, report.passed and n_pass == 16, f"{n_pass}/16 decode cases")


def test_criterion_5_table_equivalence():
    """Each alternative-table state equals its standard-table partner up to
    a unit-modulus scalar, all 8 rows."""
    ok_rows = 0
    for k in range(8):
        a = evaluate(ghz_class_state(k, "standard"))
        b = evaluate(ghz_class_state(k, "alternative"))
        v = equal_up_to_scalar(a, b, tol=1e-9)
        if v.equal and abs(abs(v.scalar) - 1) <= 1e-9:
            ok_rows += 1
    verdict(5, ok_rows == 8, f"{ok_rows}/8 rows equal with unit-modulus scalar")


def test_criterion_6_n_ghz_distinctness():
    """n = 4 and n = 5: all 2^n encodings decode to distinct basis states."""
    ok = True
    parts = []
    for n in (4, 5):
        report = sdc_n_ghz_verify(n, tol=1e-9)
        ok = ok and report.passed and report.stats["distinct_outcomes"] == 2**n
        parts.append(f"n={n}: {report.stats['distinct_outcomes']}/{2 ** n}")
    verdict(6, ok, "; ".join(parts))


def test_criterion_7_qkd_lemmas():
    """z- plug leaves |00> on any wire; unequal x amplitudes vanish."""
    w = w_state()
    target = np.zeros((4, 1), dtype=complex)
    target[0, 0] = 1
    lemma4 = all(
        equal_up_to_scalar(evaluate(w.plugged("output", i, "z-")), target, 1e-9).equal
        for i in range(3)
    )
    worst_unequal = 0.0
    for decider in range(3):
        others = [k for k in range(3) if k != decider]
        for s in ("+", "-"):
            labels = [""] * 3
            labels[decider] = "z+"
            labels[others[0]] = f"x{s}"
            labels[others[1]] = "x-" if s == "+" else "x+"
            worst_unequal = max(worst_unequal, born_probability(w, labels))
    lemma5 = worst_unequal <= 1e-9
    verdict(
        7,
        lemma4 and lemma5,
        f"lemma 4 all wires; lemma 5 worst unequal amplitude {worst_unequal:.2e}",
    )


def test_criterion_8_qkd_monte_carlo():
    """10^4 seeded rounds: no unequal bits, rates within 3 binomial sigmas."""
    report = qkd_simulate(10000, seed=7)
    unequal = [c for c in report.cases if "unequal" in c.case_id][0]
    rate_cases = [c for c in report.cases if "3 sigma" in c.case_id]
    ok = report.passed and unequal.actual == "0" and len(rate_cases) == 2
    verdict(
        8,
        ok,
        f"unequal={unequal.actual}; "
        + "; ".join(f"{c.case_id}: {c.actual}" for c in rate_cases),
    )


def _random_open(rng, n_in, n_out):
    d = Diagram()
    spiders = [
        d.add_vertex(rng.choice((Z, X)), rng.choice([Phase(0), Phase(1), Phase(1, 2), Phase(1, 4)]))
        for _ in range(rng.randint(1, 4))
    ]
    for _ in range(rng.randint(0, 4)):
        d.add_edge(rng.choice(spiders), rng.choice(spiders))
    for _ in range(n_in):
        d.add_input(rng.choice(spiders))
    for _ in range(n_out):
        d.add_output(rng.choice(spiders))
    return d


def test_criterion_9_structural_properties():
    """500 random diagrams: round-trip isomorphism, relabeling invariance,
    and exact composition functoriality (all at 1e-12)."""
    rng = random.Random(99)
    worst = 0.0
    for i in range(500):
        if i % 2 == 0:
            d = random_diagram(rng, max_vertices=6, max_boundaries=3)
            assert isomorphic(parse_zxg(serialize_zxg(d)), d)
            ids = d.vertices()
            shuffled = ids[:]
            rng.shuffle(shuffled)
            m = evaluate(d)
            m2 = evaluate(d.relabeled(dict(zip(ids, shuffled))))
            worst = max(worst, float(np.max(np.abs(m - m2))))
        else:
            mid = rng.randint(0, 2)
            f = _random_open(rng, rng.randint(0, 2), mid)
            g = _random_open(rng, mid, rng.randint(0, 2))
            seq = evaluate(f.compose(g))
            ref = evaluate(g) @ evaluate(f)
            worst = max(
                worst,
                float(np.max(np.abs(seq - ref)) / max(1.0, np.max(np.abs(ref)))),
            )
            par = evaluate(f.tensor(g))
            refp = np.kron(evaluate(f), evaluate(g))
            worst = max(
                worst,
                float(np.max(np.abs(par - refp)) / max(1.0, np.max(np.abs(refp)))),
            )
    verdict(9, worst <= 1e-12, f"500 diagrams, worst deviation {worst:.2e}")


def test_criterion_10_cli_determinism():
    """Both verify commands produce byte-identical output twice, exit 0."""

    a1 = run_cli_process("verify", "sdc-ghz")
    a2 = run_cli_process("verify", "sdc-ghz")
    b1 = run_cli_process("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    b2 = run_cli_process("verify", "qkd-w3", "--rounds", "10000", "--seed", "7")
    codes = [p.returncode for p in (a1, a2, b1, b2)]
    ok = codes == [0] * 4 and a1.stdout == a2.stdout and b1.stdout == b2.stdout
    verdict(
        10,
        ok,
        f"sdc-ghz {len(a1.stdout)} bytes x2; qkd-w3 {len(b1.stdout)} bytes x2; "
        f"exit {' '.join(map(str, codes))}",
    )
