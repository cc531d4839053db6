"""Protocol-level constructors and verifiers.

States and gates: GHZ and W states, Pauli wires, CNOT, the fused GHZ-basis
measurement.  Verifiers: superdense coding over the eight GHZ-class states
(both unitary tables, and the N-qubit generalisation) and the pairwise
key-distribution protocol on the three-qubit W state (exact lemma checks
plus a seeded Monte-Carlo simulation of the full round structure).

Wire conventions: in superdense coding qubit 1 is the receiver's; the
encoding unitaries act on qubits 2..N.  In the key-distribution protocol
the three participants hold wires 1, 2, 3 in order.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Iterable, Optional

import numpy as np

from .graph import Diagram, VertexType
from .phase import Phase
from .semantics import DEFAULT_TOLERANCE, _born, _bra, _scaled_state, equal_up_to_scalar, evaluate

Z, X = VertexType.Z, VertexType.X

PAULI_NAMES = ("I", "X", "Z", "iY", "minus_iY")


# ----------------------------------------------------------------------
# states and gates


def wire() -> Diagram:
    d = Diagram()
    d.add_output(d.add_input())
    return d


def ghz_state(n: int = 3) -> Diagram:
    """The n-qubit GHZ state |0..0> + |1..1>: a single phase-free Z spider."""
    d = Diagram()
    z = d.add_vertex(Z, Phase.zero())
    for _ in range(n):
        d.add_output(z)
    return d


def w_state() -> Diagram:
    """The three-qubit W state |001> + |010> + |100| up to a scalar.

    Construction: an X(pi) parity spider forces odd weight, and a single
    carrier qubit coupled to every wire by a controlled half-turn
    interferes the weight-3 component away:

        W[b]  ~  [weight(b) odd] * sum_c (-1)^c * i^(c * weight(b))

    The controlled phases are realised as XOR gadgets (an X spider with a
    Z(-pi/4) point) with the residual pi/4 phases folded onto the wire and
    carrier spiders.  All phases are rational multiples of pi, so the state
    is exact.
    """
    d = Diagram()
    wires = [d.add_vertex(Z, Phase(1, 4)) for _ in range(3)]
    parity = d.add_vertex(X, Phase.pi())
    carrier = d.add_vertex(Z, Phase(1, 4))
    gadgets = [d.add_vertex(X, Phase.zero()) for _ in range(3)]
    points = [d.add_vertex(Z, Phase(7, 4)) for _ in range(3)]
    for i in range(3):
        d.add_edge(wires[i], parity)
        d.add_edge(wires[i], gadgets[i])
        d.add_edge(carrier, gadgets[i])
        d.add_edge(gadgets[i], points[i])
        d.add_output(wires[i])
    return d


def _phase_gate(ty: VertexType, phase: Phase) -> Diagram:
    d = Diagram()
    v = d.add_vertex(ty, phase)
    d.add_input(v)
    d.add_output(v)
    return d


def pauli(name: str) -> Diagram:
    """A 1-qubit Pauli wire: I, X, Z, iY = Z(pi) after X(pi), or minus_iY."""
    if name == "I":
        return wire()
    if name == "X":
        return _phase_gate(X, Phase.pi())
    if name == "Z":
        return _phase_gate(Z, Phase.pi())
    if name == "iY":
        return pauli("X").compose(pauli("Z"))
    if name == "minus_iY":
        return pauli("Z").compose(pauli("X"))
    raise ValueError(f"unknown Pauli {name!r}; expected one of {PAULI_NAMES}")


def cnot() -> Diagram:
    """CNOT with qubit 1 the control: a connected Z/X spider pair."""
    d = Diagram()
    zc = d.add_vertex(Z, Phase.zero())
    xt = d.add_vertex(X, Phase.zero())
    d.add_edge(zc, xt)
    d.add_input(zc)
    d.add_input(xt)
    d.add_output(zc)
    d.add_output(xt)
    return d


def ghz_measurement(n: int) -> Diagram:
    """The GHZ-basis measurement on n wires: CNOTs from wire 1 onto wires
    2..n, then H on wire 1, with the controls fused into one Z spider joined
    to each target's X spider and to the H box on output 1.  Read in the z
    basis, it maps the GHZ-class states to distinct basis states.
    """
    if n < 2:
        raise ValueError("ghz_measurement needs at least 2 wires")
    d = Diagram()
    control = d.add_vertex(Z, Phase.zero())
    h = d.add_vertex(VertexType.H)
    d.add_edge(control, h)
    d.add_input(control)
    d.add_output(h)
    for _ in range(n - 1):
        target = d.add_vertex(X, Phase.zero())
        d.add_edge(control, target)
        d.add_input(target)
        d.add_output(target)
    return d


# ----------------------------------------------------------------------
# GHZ-class states and superdense coding

# unitary pairs (qubit 2, qubit 3) indexed by the three message bits
UNITARY_TABLES = {
    "standard": [
        ("I", "I"),
        ("I", "X"),
        ("X", "I"),
        ("X", "X"),
        ("Z", "I"),
        ("Z", "X"),
        ("iY", "I"),
        ("iY", "X"),
    ],
    "alternative": [
        ("Z", "Z"),
        ("Z", "iY"),
        ("iY", "Z"),
        ("iY", "iY"),
        ("I", "Z"),
        ("I", "iY"),
        ("X", "Z"),
        ("X", "iY"),
    ],
}


def _table_row(k: int, table: str) -> tuple[str, ...]:
    if table not in UNITARY_TABLES:
        raise ValueError(f"unknown table {table!r}; expected one of {tuple(UNITARY_TABLES)}")
    if isinstance(k, bool):  # operator.index takes a bool as 0 or 1
        raise TypeError("GHZ class index must be an integer, not bool")
    k = operator.index(k)  # a float or a string raises TypeError here
    if not 0 <= k <= 7:
        raise ValueError("GHZ class index must be in 0..7")
    return UNITARY_TABLES[table][k]


def ghz_class_state(k: int, table: str = "standard") -> Diagram:
    """The k-th GHZ-class state: the table's unitary pair applied to qubits
    2 and 3 of the GHZ state."""
    return ghz_state(3).compose(reduce(Diagram.tensor, map(pauli, _table_row(k, table)), wire()))


_SLOTS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "iY": (1, 1)}  # bits of an iY slot: X, then Z


def _sdc_readouts(layers: list[tuple[str, ...]], tol: float) -> list[Optional[int]]:
    """For each layer of Paulis on qubits 2..n of the n-qubit GHZ state, the basis
    state ``ghz_measurement(n)`` reads (None if another entry exceeds ``tol`` of the
    largest), as columns of one evaluated matrix: the template with ``pauli("iY")``
    on wires 2..n, its phases set to 0, takes each slot some layer sets as an input,
    on the X spider directly and through an H box on the Z spider, so a slot bit a
    makes it X(a pi) or Z(a pi) and a layer reads the column of its slot bits."""
    n = 1 + len(layers[0])
    slots = reduce(Diagram.tensor, [pauli("iY")] * (n - 1), wire())
    d = ghz_state(n).compose(slots).compose(ghz_measurement(n))
    phased = [v for v in sorted(d.phases) if d.phases[v].num]  # X then Z, wire by wire
    bits = np.array([[b for name in layer for b in _SLOTS[name]] for layer in layers])
    opened = bits.any(axis=0)
    for v, opens in zip(phased, opened.tolist()):
        d.phases[v] = Phase.zero()
        if opens and d.types[v] is X:
            d.add_input(v)
        elif opens:
            h = d.add_vertex(VertexType.H)
            d.add_edge(v, h)  # the H box's first leg
            d.add_input(h)
    columns = bits[:, opened] @ (1 << np.arange(opened.sum())[::-1])
    mags = np.abs(evaluate(d)[:, columns].T)
    at = range(len(layers)), mags.argmax(axis=1)
    top, mags[at] = mags[at], 0
    return [int(i) if ok else None for i, ok in zip(at[1], mags.max(axis=1) <= tol * top)]


def sdc_decode(
    k: int, table: str = "standard", tol: float = DEFAULT_TOLERANCE
) -> tuple[int, int, int]:
    """Measure the k-th GHZ-class state in the GHZ basis and read three bits.

    The measured vector must be a computational basis state (all other
    entries below ``tol`` relative); anything else signals a circuit
    transcription error and raises ValueError.
    """
    (idx,) = _sdc_readouts([_table_row(k, table)], tol)
    if idx is None:
        raise ValueError(f"GHZ measurement of class {k} ({table}) is not a basis state")
    return ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)


# ----------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class QkdRound:
    """One simulated round of the key-distribution protocol.

    ``accepted`` means the basis pattern had exactly one z measurement and
    the decider (the z participant) got the + outcome; only then do the two
    x participants share a bit (x+ -> 0, x- -> 1).
    """

    bases: tuple[str, str, str]
    outcomes: tuple[str, str, str]
    accepted: bool
    decider: Optional[int] = None
    shared_bit: Optional[int] = None


@dataclass
class CaseResult:
    case_id: str
    expected: str
    actual: str
    passed: bool


@dataclass
class ProtocolReport:
    """Verdicts for one protocol run, with optional statistics and traces."""

    protocol: str
    cases: list[CaseResult] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    seed: Optional[int] = None
    rounds: list[QkdRound] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def add(self, case_id: str, expected, actual, passed: bool) -> None:
        self.cases.append(CaseResult(case_id, str(expected), str(actual), passed))

    def machine_lines(self) -> list[str]:
        return [
            f"{c.case_id} | {c.expected} | {c.actual} | {'pass' if c.passed else 'FAIL'}"
            for c in self.cases
        ]

    def render(self) -> str:
        lines = [f"protocol: {self.protocol}"]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.extend(self.machine_lines())
        for key in sorted(self.stats):
            value = self.stats[key]
            if isinstance(value, float):
                lines.append(f"{key}: {value:.6g}")
            else:
                lines.append(f"{key}: {value}")
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.cases)}/{len(self.cases)} cases)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# superdense coding verification


def sdc_verify_all(tol: float = DEFAULT_TOLERANCE) -> ProtocolReport:
    """Decode all eight class states under both unitary tables: 16 cases,
    read as columns of one evaluated matrix (``_sdc_readouts``)."""
    report = ProtocolReport("sdc-ghz")
    cases = [(table, k) for table in ("standard", "alternative") for k in range(8)]
    readouts = _sdc_readouts([UNITARY_TABLES[table][k] for table, k in cases], tol)
    for (table, k), idx in zip(cases, readouts):
        expected = ((k >> 2) & 1, (k >> 1) & 1, k & 1)
        actual = "superposition" if idx is None else ((idx >> 2) & 1, (idx >> 1) & 1, idx & 1)
        report.add(f"{table}/{k}", expected, actual, actual == expected)
    return report


def _pauli_layers(n: int) -> list[tuple[str, ...]]:
    """All encoding layers for the n-qubit protocol: one of the four Paulis
    on the last qubit, I or X on each of qubits 2..n-1."""
    middles = product(("I", "X"), repeat=n - 2)
    return [mid + (last,) for mid in middles for last in ("I", "X", "iY", "Z")]


def sdc_n_ghz_verify(n: int, tol: float = DEFAULT_TOLERANCE) -> ProtocolReport:
    """Superdense coding on the n-qubit GHZ state: all 2^n encodings, columns of one
    evaluated matrix (``_sdc_readouts``), must measure to 2^n distinct basis states."""
    if not 3 <= n <= 6:
        raise ValueError("n must be in 3..6")
    report = ProtocolReport(f"sdc-ghz-n{n}")
    layers = _pauli_layers(n)
    seen: dict[int, tuple[str, ...]] = {}
    for layer_names, idx in zip(layers, _sdc_readouts(layers, tol)):
        label = "(" + ",".join(layer_names) + ")"
        if idx is None:
            report.add(label, "basis state", "superposition", False)
            continue
        if idx in seen:
            report.add(label, "fresh outcome", f"collides with {seen[idx]}", False)
        else:
            seen[idx] = layer_names
            report.add(label, "distinct", format(idx, f"0{n}b"), True)
    report.stats["distinct_outcomes"] = len(seen)
    report.stats["encodings"] = 2**n
    return report


# ----------------------------------------------------------------------
# QKD with the W state


def qkd_check_lemmas(tol: float = DEFAULT_TOLERANCE) -> ProtocolReport:
    """Exact checks behind the protocol.

    (a) a z- outcome on any wire breaks the entanglement: the other two
        qubits are left in |00>;
    (b) given the decider's z+ on any wire, the two x outcomes always
        agree: amplitudes of unequal outcomes vanish;
    (c) the scripted rewrite chain reaches the same conclusion
        diagrammatically (see the qkd_core derivation replay).
    """
    from .rewrite.derivations import replay_derivation

    report = ProtocolReport("qkd-w3-lemmas")
    w = w_state()
    zero_zero = np.zeros(4, dtype=complex)
    zero_zero[0] = 1
    for wire_idx in range(3):
        rest = evaluate(w.plugged("output", wire_idx, "z-")).reshape(-1)
        verdict = equal_up_to_scalar(rest.reshape(-1, 1), zero_zero.reshape(-1, 1), tol)
        report.add(f"z-minus wire {wire_idx} -> |00>", True, verdict.equal, verdict.equal)

    w_scaled = _scaled_state(evaluate(w).reshape(-1))
    for decider in range(3):
        others = [k for k in range(3) if k != decider]
        for s2 in "+-":
            for s3 in "+-":
                labels = [""] * 3
                labels[decider] = "z+"
                labels[others[0]] = f"x{s2}"
                labels[others[1]] = f"x{s3}"
                (p,) = _born(*w_scaled, [_BRAS[_LABELS.index(labels)]])
                if s2 == s3:
                    ok = p > tol
                    report.add(
                        f"decider {decider}, equal x{s2}x{s3}", "nonzero", f"{p:.6f}", ok
                    )
                else:
                    ok = p <= tol
                    report.add(
                        f"decider {decider}, unequal x{s2}x{s3}", "0", f"{p:.3e}", ok
                    )

    try:
        trace = replay_derivation("qkd_core")
        report.add("qkd_core replay", "completes", f"{len(trace)} steps", True)
        report.stats["qkd_core_steps"] = len(trace)
    except Exception as exc:  # replay failure signals a transcription bug
        report.add("qkd_core replay", "completes", repr(exc), False)
    return report


_ACCEPTED_PATTERNS = {("z", "x", "x"), ("x", "z", "x"), ("x", "x", "z")}


def _round_record(bases: tuple[str, str, str], signs: tuple[str, str, str]) -> QkdRound:
    """The record of a round that drew ``bases`` and measured ``signs``."""
    if bases not in _ACCEPTED_PATTERNS:
        return QkdRound(bases, signs, accepted=False)
    decider = bases.index("z")
    if signs[decider] != "+":
        return QkdRound(bases, signs, accepted=False, decider=decider)
    s1, s2 = (signs[k] for k in range(3) if k != decider)
    bit = None if s1 != s2 else 0 if s1 == "+" else 1
    return QkdRound(bases, signs, accepted=True, decider=decider, shared_bit=bit)


# The 64 cells of a round, ``8 * basis + outcome``: the basis triple and the
# sign triple count up in binary, z and + the 0 bits, wire 1 the highest.
_CELLS = [(bases, signs) for bases in product("zx", repeat=3) for signs in product("+-", repeat=3)]
_LABELS = [[b + s for b, s in zip(bases, signs)] for bases, signs in _CELLS]
_BRAS = np.array([_bra(labels) for labels in _LABELS])  # row i: cell i's effect
_RECORDS = np.empty(64, dtype=object)  # frozen, so every round of a cell shares its record
_RECORDS[:] = [_round_record(bases, signs) for bases, signs in _CELLS]
_KEYED = np.array([r.shared_bit is not None for r in _RECORDS])
_FLAGS = np.array(  # per cell: basis accepted, decider z+, unequal x outcomes
    [(r.decider is not None, r.accepted, r.accepted and r.shared_bit is None) for r in _RECORDS]
)
_KEY_CELLS = [  # the cells that share a bit: (cell, its non-deciders, the bit)
    (i, tuple(k for k in range(3) if k != r.decider), r.shared_bit)
    for i, r in enumerate(_RECORDS)
    if r.shared_bit is not None
]


_CHUNK = 2048  # rounds per pass of _draw_cells, which bounds its memory for any count


def _draw_cells(rng: random.Random, rounds: int, sums: np.ndarray):
    """Yield, a chunk at a time, each round's cell ``8 * basis + outcome`` as the
    per-round loop draws it from ``rng``: three ``choice("zx")`` calls, then
    ``outcome = min(bisect_right(sums[basis], random()), 7)``; the same 32-bit
    words, read in bulk.  In CPython 3.10 to 3.13, ``choice("zx")`` takes the
    first word whose top bit is 0 and reads its bit 30 (z = 0, x = 1), and
    ``random()`` reads the next two as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.
    So the rank of the accepted word a round starts at fixes the next round's;
    the orbit of that map from 0 comes from pointer doubling.  The basis and
    ``random()`` words are then read at the drawn ranks only.  Words a chunk
    leaves over are carried into the next; nothing is kept between calls."""
    words = np.empty(0, dtype="<u4")
    while rounds:
        need = min(rounds, _CHUNK)
        n = max(9 * need + 32 - len(words), 32)  # a round takes 8 words on average
        fresh = np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), "<u4")
        words = np.concatenate([words, fresh])
        accepted = words >> 31 == 0
        top = np.flatnonzero(accepted)  # the words choice() takes, by rank
        third = top[2:]  # the last of them in the round at each rank
        whole = np.searchsorted(third, len(words) - 2)  # ranks whose round has its words
        step = np.arange(len(top) + 1)  # a rank whose round runs past the words stays put
        step[:whole] += 3 + accepted[third[:whole] + 1] + accepted[third[:whole] + 2]
        orbit = np.zeros(1, dtype=step.dtype)
        while len(orbit) <= need:
            orbit, step = np.concatenate([orbit, step[orbit]]), step[step]
        done = min(np.searchsorted(orbit, whole), need)
        q = orbit[:done]
        last = third[q]
        basis = 4 * (words[top[q]] >> 30) + 2 * (words[top[q + 1]] >> 30) + (words[last] >> 30)
        u = ((words[last + 1] >> 5) * 67108864.0 + (words[last + 2] >> 6)) / 2.0**53
        # rows of sums are nondecreasing, so counting entries <= u is bisect_right
        yield np.minimum((sums[basis] <= u[:, None]).sum(1), 7) + 8 * basis
        rounds -= done
        words = words[np.append(top, len(words))[orbit[done]] :]  # from the next round's rank


def qkd_simulate(
    rounds: int,
    seed: int = 0,
    eavesdrop_checks: Optional[Iterable[int]] = None,
) -> ProtocolReport:
    """Monte-Carlo simulation of the pairwise key-distribution rounds.

    Each round draws three independent basis choices, keeps only the three
    one-z patterns, samples the joint outcome from the Born distribution,
    applies the decider filter (z outcome must be +) and records the shared
    bit of the other two participants (x+ -> 0, x- -> 1).  The round log
    depends on ``seed`` alone: rounds are drawn in bulk (``_draw_cells``)
    from the same bits that per-round ``choice("zx")`` and ``random()`` calls
    on ``random.Random(seed)`` read.

    One call evaluates the W state once and takes its 64 Born values in one
    pass over the constant effects of the cells (``_BRAS``); the round
    records and their tallies are constants too.  The rest is the bulk
    decode, which keeps no state between calls.

    ``eavesdrop_checks`` marks rounds that the security steps of the
    protocol would sacrifice for comparison; they are recorded (and excluded
    from the key) but no adversary is modelled.

    Both rate checks are two-sided 3 sigma bands, so a correct simulator fails
    each on about 0.27% of seeds; seed 0 at 10,000 rounds fails the basis one.
    """
    if operator.index(rounds) < 1:
        raise ValueError("rounds must be >= 1")
    probs = _born(*_scaled_state(evaluate(w_state()).reshape(-1)), _BRAS)
    sums = np.cumsum(np.reshape(probs, (8, 8)), axis=1)  # added one at a time, in order
    sacrificial = set(eavesdrop_checks or ())

    counts, lost = np.zeros((2, 64), dtype=np.int64)  # rounds, and sacrificed ones, per cell
    log: list[QkdRound] = []
    for drawn in _draw_cells(random.Random(seed), rounds, sums):
        counts += np.bincount(drawn, minlength=64)
        if sacrificial:  # only a round that shares a bit can be sacrificed
            for i in np.flatnonzero(_KEYED[drawn]).tolist():
                lost[drawn[i]] += (len(log) + i) in sacrificial
        log.extend(_RECORDS[drawn].tolist())

    n_basis_accepted, n_decider_plus, n_unequal = (counts @ _FLAGS).tolist()
    key_bits: dict[tuple[int, int], list[int]] = {}  # non-deciders: [bits, ones]
    kept = (counts - lost).tolist()
    for cell, others, bit in _KEY_CELLS:
        if kept[cell]:
            tally = key_bits.setdefault(others, [0, 0])
            tally[0] += kept[cell]
            tally[1] += kept[cell] * bit

    report = ProtocolReport("qkd-w3-mc", seed=seed)
    report.rounds = log
    basis_rate = n_basis_accepted / rounds
    sigma_basis = math.sqrt(3 / 8 * 5 / 8 / rounds)
    report.add(
        "basis acceptance rate within 3 sigma of 3/8",
        f"{3 / 8:.4f}±{3 * sigma_basis:.4f}",
        f"{basis_rate:.4f}",
        abs(basis_rate - 3 / 8) <= 3 * sigma_basis,
    )
    if n_basis_accepted:
        plus_rate = n_decider_plus / n_basis_accepted
        sigma_plus = math.sqrt(2 / 3 * 1 / 3 / n_basis_accepted)
        report.add(
            "decider z+ rate within 3 sigma of 2/3",
            f"{2 / 3:.4f}±{3 * sigma_plus:.4f}",
            f"{plus_rate:.4f}",
            abs(plus_rate - 2 / 3) <= 3 * sigma_plus,
        )
    report.add("accepted rounds with unequal shared bits", 0, n_unequal, n_unequal == 0)

    report.stats["rounds"] = rounds
    report.stats["basis_accepted"] = n_basis_accepted
    report.stats["decider_plus"] = n_decider_plus
    report.stats["sacrificed_rounds"] = int(lost.sum())
    for pair, (bits, ones) in sorted(key_bits.items()):
        label = "ABC"[pair[0]] + "ABC"[pair[1]]
        report.stats[f"key_bits_{label}"] = bits
        report.stats[f"key_ones_{label}"] = ones
    return report
