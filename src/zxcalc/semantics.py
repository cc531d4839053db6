"""Evaluation of diagrams to dense complex matrices, as a sum over paths.

Every vertex carries one binary variable, which each leg reads plainly (Z
spider, boundary, an H box's first leg) or through a Hadamard (X spider, an
H box's second leg).  So an edge is the factor I where its ends read alike,
which merges the two variables (a union-find; this is spider fusion), and H
where they differ, the parity factor (-1)^(a*b) / sqrt(2).  Parallel H edges
between two classes cancel in pairs, and one inside a class is the sign
(-1)^a.  A class weighs (1, prod e^{i alpha}) over its spiders' phases, times
those signs, so a diagram with K H edges is 2^(-K/2) sum_a prod_c w_c(a_c)
prod (-1)^(a_u a_v) (Dawson et al., quant-ph/0408129; Amy, arXiv:1805.06908).
This is the usual interpretation: a Z spider of phase a has all-zeros entry
1 and all-ones entry e^{ia}, an X spider is that with a Hadamard on every
leg, H is the Hadamard with its 1/sqrt(2), and a boundary is a wire end.
The edges are read in edge-id order, the order they were added in (that of
:attr:`~zxcalc.graph.Diagram.edges`).  That order decides which leg of an H
box is its first and the order in which the factors are built and
multiplied, so the bits of the result rest on it.

The classes holding a boundary are open.  A closed class with at most one
neighbour b sums out in closed form, w(0) + (-1)^b w(1); the others are
summed out one at a time in min-degree order, ties to the lowest id, each by
one ``einsum`` whose width is checked against the cap before it runs.  The
result of :func:`evaluate` is a ``2**m x 2**n`` matrix in big-endian wire
order, times the diagram's ``scalar``: the first output/input is the most
significant bit of the row/column index.  A phase a*pi, a in {0, 1}, that
varies is an input wire instead: |a> on a leg of an X spider makes it
X(a*pi), and through an H box onto a Z spider Z(a*pi), each up to 2^(-1/2)
(Coecke & Duncan, arXiv:0906.4725), so its variants are the columns of one
evaluated matrix.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (  # the defaults and the refusal are re-exported
    _H, _X, DEFAULT_MAX_QUBITS, DEFAULT_TOLERANCE, Diagram, ResourceLimitError, VertexType
)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
_PARITY = _read_only(np.array([[1, 1], [1, -1]], dtype=complex))  # (-1)^(a*b)
_QUARTER_TURNS = {(1, 2): 1j, (1, 1): -1, (3, 2): -1j}  # e^{ia} by (num, den), exactly
_OPERANDS = 16  # per einsum call, below numpy's operand limit

# Unit effect vectors for Born-rule amplitudes.
EFFECT_VECTORS = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "x-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


def spider_tensor(ty: VertexType, phase, degree: int) -> np.ndarray:
    """The dense generator tensor of a Z or X spider with ``degree`` legs,
    built fresh and read-only.  :func:`evaluate` does not build it."""
    if degree == 0:
        return _read_only(np.asarray(1 + np.exp(1j * phase.radians), dtype=complex))
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1
    t[(1,) * degree] = np.exp(1j * phase.radians)
    if ty is _X:
        for axis in range(degree):
            t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, axis)), 0, axis)
    return _read_only(t)


@np.errstate(over="ignore", invalid="ignore")  # a result out of range is refused below
def evaluate(d: Diagram, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Sum a diagram over its spider variables to its ``2**m x 2**n`` matrix.

    The edges are read in edge-id order, which fixes each H box's first leg
    and the order of the factors.  A class of merged variables is named by
    its lowest vertex id.  Closed classes with at most one neighbour are
    summed out first, in closed form; the rest in min-degree order, ties to
    the lowest id, each by one ``einsum`` over the factors that hold it.
    Its width, the class's neighbour count, is checked against
    ``max_qubits`` before it runs, as is the interface's.  The result is a
    fresh array; :class:`ResourceLimitError` is raised when a phase or the
    scale is out of the float range, or the result's largest magnitude is
    (NaN, past the largest float, or nonzero and subnormal).
    """
    d.validate()
    m, n = len(d.outputs), len(d.inputs)
    if m + n > max_qubits:
        raise ResourceLimitError(f"interface has {m + n} wires, exceeding the cap of {max_qubits}")

    types = d.types
    parent = dict(zip(types, types))
    plain_leg_taken: set[int] = set()  # H boxes whose first leg was read
    h_edges = []
    for a, b in d.edges:  # in edge-id order: H first legs and the factor order follow it
        ta, tb = types[a], types[b]  # read each leg: through H (X, a second H leg) or plainly
        ha = a in plain_leg_taken if ta is _H else ta is _X
        if ta is _H:
            plain_leg_taken.add(a)
        hb = b in plain_leg_taken if tb is _H else tb is _X
        if tb is _H:
            plain_leg_taken.add(b)
        if ha != hb:
            h_edges.append((a, b))
            continue
        while parent[a] != a:  # path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[max(a, b)] = min(a, b)
    for v in sorted(parent):  # flatten (parents have lower ids): parent[v] is v's class
        parent[v] = parent[parent[v]]

    weight = {c: [1, 1] for c in sorted(set(parent.values()))}  # (w(0), w(1))
    try:
        for v, phase in d.phases.items():  # inline: a call per phase costs evaluate 2%
            if phase.num:
                turn = _QUARTER_TURNS.get((phase.num, phase.den))
                weight[parent[v]][1] *= turn or cmath.exp(1j * phase.radians)
    except OverflowError:  # a numerator or denominator is past the float range
        raise ResourceLimitError("a phase is out of floating-point range") from None
    adj: dict[int, set[int]] = {c: set() for c in weight}  # the classes c shares a factor with
    for a, b in h_edges:
        u, v = parent[a], parent[b]
        if u == v:
            weight[u][1] = -weight[u][1]
        else:  # parallel H edges cancel in pairs
            adj[u] ^= {v}
            adj[v] ^= {u}

    pins = [parent[v] for v in d.outputs + d.inputs]
    closed = set(weight).difference(pins)
    try:
        scale = 2 ** (-len(h_edges) / 2) * complex(d.scalar)
    except OverflowError:
        scale = 0
    if scale == 0:  # neither factor is ever 0, so it underflowed
        raise ResourceLimitError("the value is out of floating-point range")
    # a closed class with at most one neighbour b sums out in closed form,
    # w(0) + (-1)^b w(1), into b's weight or the scale
    peel = sorted((c for c in closed if len(adj[c]) <= 1), reverse=True)
    while peel:
        c = peel.pop()
        closed.remove(c)
        w0, w1 = weight.pop(c)
        nbrs = adj.pop(c)
        if not nbrs:
            scale *= w0 + w1
            continue
        (b,) = nbrs
        adj[b].remove(c)
        weight[b] = [weight[b][0] * (w0 + w1), weight[b][1] * (w0 - w1)]
        if b in closed and len(adj[b]) == 1:
            peel.append(b)

    # factors keyed by their sorted variables; holding[c]: the keys with c
    factors: dict[tuple, np.ndarray] = {}
    holding: dict[int, set[tuple]] = {c: set() for c in weight}
    for c, w in weight.items():
        if w != [1, 1]:
            factors[c,] = np.array(w, dtype=complex)
            holding[c].add((c,))
    for u, vs in adj.items():
        for v in vs:
            key = (u, v) if u < v else (v, u)
            factors[key] = _PARITY
            holding[u].add(key)
    while closed:
        c = min(closed, key=lambda u: (len(adj[u]), u))
        closed.remove(c)
        scope = sorted(adj.pop(c))
        for u in scope:
            adj[u].discard(c)
            adj[u].update(w for w in scope if w != u)
        args = []
        for key in holding.pop(c):
            args += [factors.pop(key), key]
            for u in key:
                if u != c:
                    holding[u].discard(key)
        t = _einsum(args, scope, max_qubits)
        key = tuple(scope)
        if not key:
            scale *= complex(t)
        elif key in factors:
            factors[key] = factors[key] * t
        else:
            factors[key] = t
            for u in key:
                holding[u].add(key)

    opens = sorted(set(pins))
    out = np.full((2,) * len(opens), scale, dtype=complex)
    for key, t in factors.items():
        out *= t.reshape([2 if u in key else 1 for u in opens])
    axes = [opens.index(c) for c in pins]
    if len(opens) == len(pins):  # no two pins share a class
        out = out.transpose(axes)
    else:
        # write out into the diagonal of the pins that share a class
        result = np.zeros((2,) * len(pins), dtype=complex)
        np.einsum(result, axes, range(len(opens)))[...] = out
        out = result
    peak = float(np.abs(out).max())  # NaN if any entry is
    if not (peak == 0 or sys.float_info.min <= peak <= sys.float_info.max):
        raise ResourceLimitError("the value is out of floating-point range")
    return out.reshape(2**m, 2**n)


def _einsum(args: list, out: list, max_qubits: int) -> np.ndarray:
    """``einsum`` of ``[tensor, variables, ...]`` onto the variables ``out``,
    refused before it runs when ``out`` is wider than ``max_qubits``.  More
    than ``_OPERANDS`` tensors go in groups first, each checked the same
    way.  ``args``' variables are renumbered."""
    if len(out) > max_qubits:
        raise ResourceLimitError(
            f"intermediate tensor with {len(out)} wires exceeds the cap of {max_qubits}"
        )
    while len(args) > 2 * _OPERANDS:
        head, args = args[: 2 * _OPERANDS], args[2 * _OPERANDS :]
        keep = sorted(set().union(*head[1::2]))
        args += [_einsum(head, keep, max_qubits), keep]
    index: dict[int, int] = {}
    for k in range(1, len(args), 2):
        args[k] = [index.setdefault(u, len(index)) for u in args[k]]
    return np.einsum(*args, [index[u] for u in out])


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of an up-to-scalar matrix comparison.

    ``scalar`` is the recovered factor with ``a ~= scalar * b``; it is absent
    when both matrices vanish.  ``max_residual`` is the largest entrywise
    deviation after scaling.
    """

    equal: bool
    scalar: Optional[complex]
    max_residual: float

    def __bool__(self) -> bool:
        return self.equal


def equal_up_to_scalar(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOLERANCE
) -> EqualityVerdict:
    """Decide whether ``a = scalar * b`` for some nonzero scalar, within ``tol``.

    A matrix is zero only when every entry is exactly 0.  Otherwise the
    scalar is recovered from the largest-magnitude entry of ``b``, and the
    entrywise residual is judged against ``tol * ||a||_inf``, so the verdict
    does not change when either input is rescaled.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.max(np.abs(a))) if a.size else 0.0
    norm_b = float(np.max(np.abs(b))) if b.size else 0.0
    if norm_a == 0 or norm_b == 0:
        return EqualityVerdict(norm_a == norm_b, None, max(norm_a, norm_b))
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    scalar = complex(a[idx] / b[idx])
    residual = float(np.max(np.abs(a - scalar * b)))
    return EqualityVerdict(scalar != 0 and residual <= tol * norm_a, scalar, residual)


def born_probability(state: Diagram, effects) -> float:
    """Born-rule probability of a joint post-selection on a state diagram.

    ``state`` must have no inputs and n outputs; ``effects`` is a sequence of
    n labels from z+/z-/x+/x- giving the unit effect on each output wire.
    Returns ``|<effects|state>|^2 / <state|state>``.
    """
    effects = list(effects)
    if state.inputs:
        raise ValueError("born_probability expects a state (no inputs)")
    if len(effects) != len(state.outputs):
        raise ValueError(
            f"{len(state.outputs)} output wires but {len(effects)} effects"
        )
    vec, norm_sq = _scaled_state(evaluate(state).reshape(-1))
    (p,) = _born(vec, norm_sq, [_bra(effects)])
    return p


def _scaled_state(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """A flat state vector scaled by the power of two that brings its largest
    magnitude into [0.5, 1), exactly, and its squared norm, so Born values
    do not depend on the state's scale.  Only a state whose every amplitude
    is 0 has zero norm."""
    peak = float(np.abs(vec).max())
    if peak == 0:
        raise ValueError("state has zero norm")
    # 2^1023, the largest power of two a float holds, already lifts a
    # subnormal peak into the normal range
    vec = vec * math.ldexp(1.0, min(-math.frexp(peak)[1], 1023))
    return vec, float(np.real(np.vdot(vec, vec)))


def _bra(effects) -> np.ndarray:
    """The conjugated joint effect of a label sequence, the first label the
    most significant: the outer product of the unit effects, as ``np.kron``
    builds it, bit for bit."""
    bra = np.asarray(1.0 + 0j)
    for label in effects:
        try:
            bra = np.multiply.outer(bra, EFFECT_VECTORS[label]).ravel()
        except KeyError:
            raise ValueError(f"unknown effect {label!r}") from None
    return np.conj(bra)


def _born(vec: np.ndarray, norm_sq: float, bras) -> list[float]:
    """The Born value of each :func:`_bra` in ``bras`` on a state that
    :func:`_scaled_state` gave.  Each is its own ``np.dot``: one matrix
    product over all the bras sums in another order, and leaves residues
    near 1e-49 where this gives 0."""
    return [abs(complex(np.dot(bra, vec))) ** 2 / norm_sq for bra in bras]
