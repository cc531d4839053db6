"""Exact evaluation of diagrams to dense complex matrices.

Every vertex becomes a small complex tensor with one axis per incident edge
end; edges identify pairs of axes, which are contracted away.  Boundary
vertices contribute an identity tensor whose free axis becomes a row (output)
or column (input) index of the result.  The result of :func:`evaluate` is a
``2**m x 2**n`` matrix in big-endian wire order: the first output/input is
the most significant bit of the row/column index.

Generator semantics:

* Z spider, degree k, phase a: all-zeros entry 1, all-ones entry e^{ia},
  everything else 0 (for k = 0 this is the scalar 1 + e^{ia});
* X spider: the Z tensor conjugated by a Hadamard on every leg, i.e. the same
  map written in the |+>/|-> basis;
* H: the 2x2 Hadamard including its 1/sqrt(2) normalisation;
* boundary: an identity wire end.

Scalars are tracked exactly; nothing is ever normalised away.  The
diagram's own ``scalar`` multiplies the contracted matrix, unless it is 1:
then the matrix is returned as contracted, bytes and signed zeros included.
A self-loop contracts two axes of the same vertex tensor (a partial trace).

Generator tensors are read-only: spider tensors of up to ten legs are cached
by colour, phase and degree, and the H and boundary tensors are module
constants.  Contraction keeps an index from each edge label to the
parts holding it and a heap of the pairs of parts that share a label.  The
greedy order takes the pair with the smallest result rank, then the lowest
pair of part ids in creation order: vertices first in id order, then each
merged part.  A pair's key never changes while both its parts live, so a new
part pushes only its own pairs, at O(degree) per contraction, and a popped
pair that names a part already merged away is skipped as stale.
"""

from __future__ import annotations

import functools
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import Diagram, VertexType
from .phase import Scalar

DEFAULT_MAX_QUBITS = 14
DEFAULT_TOLERANCE = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# generator tensors shared by every evaluation
HADAMARD = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
_WIRE = _read_only(np.eye(2, dtype=complex))

# Unit effect vectors for Born-rule amplitudes.
EFFECT_VECTORS = {
    "z+": np.array([1, 0], dtype=complex),
    "z-": np.array([0, 1], dtype=complex),
    "x+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "x-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


class ResourceLimitError(Exception):
    """An evaluation would exceed the configured qubit cap."""


# spider tensors with at most this many legs are cached: 16 KiB each, at
# most 4 MiB for the 256 entries kept; wider ones are built on every call
_CACHED_LEGS = 10


def spider_tensor(ty: VertexType, phase, degree: int) -> np.ndarray:
    """The generator tensor of a Z or X spider with ``degree`` legs.

    Tensors of up to ten legs are cached by ``(ty, phase, degree)`` and
    shared between callers; wider ones are built fresh.  Either way the
    returned array is read-only.
    """
    if degree > _CACHED_LEGS:
        return _build_spider_tensor(ty, phase, degree)
    return _cached_spider_tensor(ty, phase, degree)


def _build_spider_tensor(ty: VertexType, phase, degree: int) -> np.ndarray:
    if degree == 0:
        return _read_only(np.asarray(1 + np.exp(1j * phase.radians), dtype=complex))
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] = 1
    t[(1,) * degree] = np.exp(1j * phase.radians)
    if ty is VertexType.X:
        for axis in range(degree):
            t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, axis)), 0, axis)
    return _read_only(t)


_cached_spider_tensor = functools.lru_cache(maxsize=256)(_build_spider_tensor)


def _vertex_tensor(d: Diagram, v: int, legs: int) -> np.ndarray:
    ty = d.types[v]
    if ty.is_spider():
        return spider_tensor(ty, d.phases[v], legs)
    return HADAMARD if ty is VertexType.H else _WIRE  # the other kind is a boundary


def _trace_repeats(labels: list, tensor: np.ndarray) -> tuple[list, np.ndarray]:
    """Contract any label that appears twice within one tensor (self-loops)."""
    while True:
        seen = {}
        pair = None
        for i, lab in enumerate(labels):
            if lab in seen:
                pair = (seen[lab], i)
                break
            seen[lab] = i
        if pair is None:
            return labels, tensor
        i, j = pair
        tensor = np.trace(tensor, axis1=i, axis2=j)
        labels = [lab for k, lab in enumerate(labels) if k not in (i, j)]


def _contract_pair(a, b):
    """Contract two (labels, tensor) parts over all shared labels.

    This is ``np.tensordot(t_a, t_b, axes=(axes_a, axes_b))`` written out:
    the same transposes, reshapes and ``np.dot`` in the same operand order,
    so the same bytes, without its argument checks.  Every axis has size 2.
    With no shared label it is the outer product ``tensordot(..., axes=0)``.
    """
    labels_a, t_a = a
    labels_b, t_b = b
    shared = set(labels_a).intersection(labels_b)
    axes_a = [k for k, lab in enumerate(labels_a) if lab in shared]
    keep_a = [k for k, lab in enumerate(labels_a) if lab not in shared]
    axes_b = [labels_b.index(labels_a[k]) for k in axes_a]
    keep_b = [k for k, lab in enumerate(labels_b) if lab not in shared]
    at = t_a.transpose(keep_a + axes_a).reshape(1 << len(keep_a), 1 << len(axes_a))
    bt = t_b.transpose(axes_b + keep_b).reshape(1 << len(axes_b), 1 << len(keep_b))
    labels = [labels_a[k] for k in keep_a] + [labels_b[k] for k in keep_b]
    return labels, np.dot(at, bt).reshape((2,) * len(labels))


def evaluate(d: Diagram, *, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Contract a diagram to its ``2**m x 2**n`` matrix.

    The contraction order is greedy and deterministic: it always contracts
    the pair of parts sharing a label whose result has the smallest rank,
    then the lowest pair of part ids in creation order (vertices in id
    order, then each merged part in turn).  The candidate pairs sit in a
    heap under exactly that key, which never changes while both parts live:
    each new part pushes only its own pairs, and a popped pair naming a part
    already merged away is skipped.  The result is a fresh writeable array
    that shares no memory with the cached, read-only generator tensors.
    """
    d.validate()
    m, n = len(d.outputs), len(d.inputs)
    if m + n > max_qubits:
        raise ResourceLimitError(
            f"interface has {m + n} wires, exceeding the cap of {max_qubits}"
        )

    # one label per edge occurrence; free labels for interface pins
    stubs: dict[int, list] = {v: [] for v in d.types}
    for idx, (a, b) in enumerate(d.edges):
        stubs[a].append(("e", idx))
        stubs[b].append(("e", idx))
    for pos, v in enumerate(d.inputs):
        stubs[v].append(("in", pos))
    for pos, v in enumerate(d.outputs):
        stubs[v].append(("out", pos))

    # parts keyed by creation id: vertices in id order, then each merged part
    # gets the next id; holders maps each label to the ids of the live parts
    # carrying it (at most two), ascending
    parts: dict[int, tuple[list, np.ndarray]] = {}
    holders: dict = {}
    for pid, v in enumerate(d.vertices()):
        labels = stubs[v]
        tensor = _vertex_tensor(d, v, len(labels))
        parts[pid] = _trace_repeats(list(labels), tensor)
        for lab in parts[pid][0]:
            holders.setdefault(lab, []).append(pid)
    next_id = len(parts)

    def key(i: int, j: int, shared: int) -> tuple:
        return len(parts[i][0]) + len(parts[j][0]) - 2 * shared, i, j

    shared = Counter(tuple(ids) for ids in holders.values() if len(ids) == 2)
    heap = [key(i, j, count) for (i, j), count in shared.items()]
    heapq.heapify(heap)
    while heap:
        i, j = heapq.heappop(heap)[-2:]
        if i not in parts or j not in parts:
            continue  # stale: one side was merged after this pair was pushed
        merged = _contract_pair(parts[i], parts[j])
        if len(merged[0]) > max_qubits:
            raise ResourceLimitError(
                f"intermediate tensor with {len(merged[0])} wires exceeds the cap "
                f"of {max_qubits}"
            )
        for lab in parts.pop(i)[0] + parts.pop(j)[0]:
            holders[lab] = [k for k in holders[lab] if k not in (i, j)]
        parts[next_id] = merged
        neighbours = Counter(holders[lab][0] for lab in merged[0] if holders[lab])
        for lab in merged[0]:
            holders[lab].append(next_id)
        for k, count in neighbours.items():
            heapq.heappush(heap, key(k, next_id, count))
        next_id += 1

    labels, tensor = [], np.asarray(1.0 + 0j)
    for part in parts.values():
        labels, tensor = _contract_pair((labels, tensor), part)

    # arrange axes as out_0 .. out_{m-1}, in_0 .. in_{n-1} (big-endian)
    want = [("out", k) for k in range(m)] + [("in", k) for k in range(n)]
    perm = [labels.index(lab) for lab in want]
    tensor = np.transpose(tensor, perm) if perm else tensor
    out = np.asarray(tensor, dtype=complex).reshape(2**m, 2**n)
    return out if d.scalar == Scalar() else out * complex(d.scalar)


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

    The scalar is recovered from the largest-magnitude entry of ``b`` and the
    residual is measured entrywise against ``tol * max(1, ||a||_inf)``.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.max(np.abs(a))) if a.size else 0.0
    norm_b = float(np.max(np.abs(b))) if b.size else 0.0
    bound = tol * max(1.0, norm_a)
    if norm_a <= tol and norm_b <= tol:
        return EqualityVerdict(True, None, max(norm_a, norm_b))
    if norm_b <= tol or norm_a <= tol:
        return EqualityVerdict(False, None, max(norm_a, norm_b))
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    scalar = complex(a[idx] / b[idx])
    residual = float(np.max(np.abs(a - scalar * b)))
    if scalar != 0 and residual <= bound:
        return EqualityVerdict(True, scalar, residual)
    return EqualityVerdict(False, scalar, residual)


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
    return _born_from_vector(evaluate(state).reshape(-1), effects)


def _born_from_vector(vec: np.ndarray, effects: list) -> float:
    """:func:`born_probability` on the flat vector of an evaluated state."""
    norm_sq = float(np.real(np.vdot(vec, vec)))
    if norm_sq <= 1e-24:  # numerically zero state
        raise ValueError("state has zero norm")
    bra = np.asarray(1.0 + 0j)
    for label in effects:
        try:
            bra = np.kron(bra, EFFECT_VECTORS[label])
        except KeyError:
            raise ValueError(f"unknown effect {label!r}") from None
    amp = complex(np.dot(np.conj(bra), vec))
    return float(abs(amp) ** 2 / norm_sq)
