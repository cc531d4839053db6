"""Independent oracles for the test suite.

The matrices are built directly from textbook definitions with numpy and
never call the diagram evaluator, so evaluator tests compare two genuinely
independent routes.  Graph isomorphism and connected components come from
networkx, reading only a diagram's vertex, phase, edge and interface data.
:func:`lhs_samples` loads the committed sample diagrams that the pinned
match and trace digests are taken over.  :func:`qkd_simulate_per_round` is the
key-distribution simulator as a plain per-round loop over ``random.Random``.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_right
from itertools import product
from pathlib import Path

import networkx as nx
import numpy as np
from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

from zxcalc.graph import parse_zxg

SQRT2 = np.sqrt(2)

ID2 = np.eye(2, dtype=complex)
H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I_SIGMA_Y = np.array([[0, 1], [-1, 0]], dtype=complex)

KET_PLUS = np.array([1, 1], dtype=complex) / SQRT2
KET_MINUS = np.array([1, -1], dtype=complex) / SQRT2

# unnormalised: |001> + |010> + |100>
W_VECTOR = np.zeros(8, dtype=complex)
W_VECTOR[0b001] = W_VECTOR[0b010] = W_VECTOR[0b100] = 1

GHZ_VECTOR = np.zeros(8, dtype=complex)
GHZ_VECTOR[0b000] = GHZ_VECTOR[0b111] = 1


def kron_all(*mats: np.ndarray) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def z_spider_matrix(n_in: int, n_out: int, alpha: float) -> np.ndarray:
    """|0..0><0..0| + e^{ia} |1..1><1..1| from the map definition."""
    m = np.zeros((2**n_out, 2**n_in), dtype=complex)
    m[0, 0] += 1
    m[-1, -1] += np.exp(1j * alpha)
    return m


def x_spider_matrix(n_in: int, n_out: int, alpha: float) -> np.ndarray:
    """The same map written in the |+>/|-> basis, via projectors."""
    plus_out = kron_all(*([KET_PLUS.reshape(2, 1)] * n_out)) if n_out else np.array([[1.0]])
    minus_out = kron_all(*([KET_MINUS.reshape(2, 1)] * n_out)) if n_out else np.array([[1.0]])
    plus_in = kron_all(*([KET_PLUS.reshape(1, 2)] * n_in)) if n_in else np.array([[1.0]])
    minus_in = kron_all(*([KET_MINUS.reshape(1, 2)] * n_in)) if n_in else np.array([[1.0]])
    return plus_out @ plus_in + np.exp(1j * alpha) * (minus_out @ minus_in)


def cnot_on(n: int, control: int, target: int) -> np.ndarray:
    """CNOT embedded in an n-qubit register, wire 0 most significant."""
    dim = 2**n
    m = np.zeros((dim, dim), dtype=complex)
    for basis in range(dim):
        c = (basis >> (n - 1 - control)) & 1
        out = basis ^ ((c & 1) << (n - 1 - target))
        m[out, basis] = 1
    return m


def gate_on(n: int, wire: int, gate: np.ndarray) -> np.ndarray:
    mats = [gate if k == wire else ID2 for k in range(n)]
    return kron_all(*mats)


def ghz_measurement_matrix(n: int) -> np.ndarray:
    m = np.eye(2**n, dtype=complex)
    for target in range(1, n):
        m = cnot_on(n, 0, target) @ m
    return gate_on(n, 0, H_MAT) @ m


def standard_form_vector(k: int) -> np.ndarray:
    """The textbook standard form (|0 i j> + (-1)^{b1} |1 ~i ~j>)/sqrt(2)."""
    b1, i, j = (k >> 2) & 1, (k >> 1) & 1, k & 1
    v = np.zeros(8, dtype=complex)
    v[(0 << 2) | (i << 1) | j] = 1
    v[(1 << 2) | ((1 - i) << 1) | (1 - j)] = (-1) ** b1
    return v / SQRT2


def proportional(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Independent up-to-scalar check (least-squares scalar fit)."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        return False
    na, nb = np.max(np.abs(a)), np.max(np.abs(b))
    if na <= tol and nb <= tol:
        return True
    if na <= tol or nb <= tol:
        return False
    lam = np.vdot(b, a) / np.vdot(b, b)
    return bool(np.max(np.abs(a - lam * b)) <= tol * max(1.0, na))


def exactly_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Entrywise equality within ``tol * max(1, max|b|)``: no free scalar."""
    return bool(np.allclose(a, b, rtol=0, atol=tol * max(1.0, np.abs(b).max())))


def _nx_graph(d) -> nx.Graph:
    """``d`` as a simple graph: each node keyed by its type, its phase as
    ``(num, den)`` and its interface side and position; each edge carries
    its multiplicity, self-loops included."""
    g = nx.Graph()
    for v, ty in d.types.items():
        phase = d.phases.get(v)
        if v in d.inputs:
            io = ("in", d.inputs.index(v))
        elif v in d.outputs:
            io = ("out", d.outputs.index(v))
        else:
            io = None
        g.add_node(v, key=(ty.value, None if phase is None else (phase.num, phase.den), io))
    for a, b in d.edges:
        mult = g.edges[a, b]["mult"] if g.has_edge(a, b) else 0
        g.add_edge(a, b, mult=mult + 1)
    return g


def isomorphic(a, b) -> bool:
    """Type-, phase- and interface-order-preserving multigraph isomorphism."""
    return nx.is_isomorphic(
        _nx_graph(a),
        _nx_graph(b),
        node_match=categorical_node_match("key", None),
        edge_match=categorical_edge_match("mult", 0),
    )


def component(d, v: int) -> set[int]:
    """The vertices of ``d`` connected to ``v``, ``v`` included."""
    return nx.node_connected_component(_nx_graph(d), v)


LHS_SAMPLES = Path(__file__).resolve().parent / "lhs_samples.zxg"


def lhs_samples() -> list:
    """The diagrams of ``lhs_samples.zxg`` in file order, each parsed from
    the text after its ``# <rule> <direction> <k>`` header."""
    chunks = re.split(r"^# \S+ (?:forward|backward) \d+$", LHS_SAMPLES.read_text(), flags=re.M)
    return [parse_zxg(text) for text in chunks[1:]]


def born_scaled_reference(vec: np.ndarray, norm_sq: float, effects) -> float:
    """The Born value of ``effects`` on a state that
    :func:`zxcalc.semantics._scaled_state` gave, one label list at a time:
    the bra built by ``np.multiply.outer`` (as ``np.kron``), then one ``np.dot``."""
    from zxcalc.semantics import EFFECT_VECTORS

    bra = np.asarray(1.0 + 0j)
    for label in effects:
        bra = np.multiply.outer(bra, EFFECT_VECTORS[label]).ravel()
    amp = complex(np.dot(np.conj(bra), vec))
    return float(abs(amp) ** 2 / norm_sq)


def _qkd_round_record(bases, signs):
    """A round's record, from the protocol's rules: accepted when one wire
    measured z and read +; then the x wires share a bit if they agree."""
    from zxcalc.protocols import QkdRound

    if bases.count("z") != 1:
        return QkdRound(bases, signs, accepted=False)
    decider = bases.index("z")
    if signs[decider] == "-":
        return QkdRound(bases, signs, accepted=False, decider=decider)
    xs = {signs[k] for k in range(3) if k != decider}
    bit = "+-".index(xs.pop()) if len(xs) == 1 else None
    return QkdRound(bases, signs, accepted=True, decider=decider, shared_bit=bit)


def qkd_simulate_per_round(rounds: int, seed: int = 0, eavesdrop_checks=None):
    """:func:`zxcalc.protocols.qkd_simulate` drawn a round at a time: three
    ``rng.choice("zx")`` calls, then ``bisect_right`` of ``rng.random()`` into
    the basis triple's running Born sums (:func:`born_scaled_reference`, added
    one at a time).  The same report, by another route."""
    from zxcalc.protocols import ProtocolReport, _scaled_state, evaluate, w_state

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = random.Random(seed)
    w_scaled = _scaled_state(evaluate(w_state()).reshape(-1))
    tables = {}  # bases: (running sums, [(record, non-deciders)] by outcome)
    for bases in product("zx", repeat=3):
        sums, records, acc = [], [], 0.0
        for signs in product("+-", repeat=3):
            acc += born_scaled_reference(*w_scaled, [b + s for b, s in zip(bases, signs)])
            sums.append(acc)
            record = _qkd_round_record(bases, signs)
            records.append((record, tuple(k for k in range(3) if k != record.decider)))
        tables[bases] = sums, records
    sacrificial = set(eavesdrop_checks or ())

    n_basis_accepted = n_decider_plus = n_unequal = n_sacrificed = 0
    key_bits: dict[tuple[int, int], list[int]] = {}
    log = []
    for r in range(rounds):
        sums, records = tables[rng.choice("zx"), rng.choice("zx"), rng.choice("zx")]
        record, others = records[min(bisect_right(sums, rng.random()), 7)]
        log.append(record)
        if record.decider is None:
            continue
        n_basis_accepted += 1
        if not record.accepted:
            continue
        n_decider_plus += 1
        if record.shared_bit is None:
            n_unequal += 1
            continue
        if r in sacrificial:
            n_sacrificed += 1
            continue
        key_bits.setdefault(others, []).append(record.shared_bit)

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
    report.stats["sacrificed_rounds"] = n_sacrificed
    for pair in sorted(key_bits):
        label = "ABC"[pair[0]] + "ABC"[pair[1]]
        report.stats[f"key_bits_{label}"] = len(key_bits[pair])
        report.stats[f"key_ones_{label}"] = sum(key_bits[pair])
    return report
