"""A frozen copy of the original dense evaluator, kept as a bitwise reference.

It scans every pair of parts for a shared label on each step and builds every
generator tensor from scratch.  ``evaluate`` must reproduce its results byte
for byte, and its exceptions type for type and message for message: the
indexed contraction loop picks the same pair with the same operand order at
every step, so not even the floating-point rounding may differ.  It ignores
the diagram's ``scalar``: callers multiply it in.
"""

from __future__ import annotations

import numpy as np

from zxcalc.graph import Diagram, VertexType
from zxcalc.semantics import ResourceLimitError

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def spider_tensor(ty: VertexType, phase, degree: int) -> np.ndarray:
    t = np.zeros((2,) * degree, dtype=complex)
    if degree == 0:
        return np.asarray(1 + np.exp(1j * phase.radians), dtype=complex)
    t[(0,) * degree] = 1
    t[(1,) * degree] = np.exp(1j * phase.radians)
    if ty is VertexType.X:
        for axis in range(degree):
            t = np.moveaxis(np.tensordot(HADAMARD, t, axes=(1, axis)), 0, axis)
    return t


def _vertex_tensor(d: Diagram, v: int, legs: int) -> np.ndarray:
    ty = d.types[v]
    if ty.is_spider():
        return spider_tensor(ty, d.phases[v], legs)
    if ty is VertexType.H:
        return HADAMARD.copy()
    if ty is VertexType.BOUNDARY:
        return np.eye(2, dtype=complex)
    raise AssertionError(f"unhandled vertex type {ty}")


def _trace_repeats(labels: list, tensor: np.ndarray) -> tuple[list, np.ndarray]:
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
    labels_a, t_a = a
    labels_b, t_b = b
    shared = [lab for lab in labels_a if lab in labels_b]
    axes_a = [labels_a.index(lab) for lab in shared]
    axes_b = [labels_b.index(lab) for lab in shared]
    t = np.tensordot(t_a, t_b, axes=(axes_a, axes_b))
    labels = [lab for lab in labels_a if lab not in shared] + [
        lab for lab in labels_b if lab not in shared
    ]
    return labels, t


def reference_evaluate(d: Diagram, *, order: str = "greedy", max_qubits: int = 14) -> np.ndarray:
    d.validate()
    m, n = len(d.outputs), len(d.inputs)
    if m + n > max_qubits:
        raise ResourceLimitError(
            f"interface has {m + n} wires, exceeding the cap of {max_qubits}"
        )
    if order not in ("greedy", "sequential"):
        raise ValueError(f"unknown contraction order {order!r}")

    stubs: dict[int, list] = {v: [] for v in d.types}
    for idx, (a, b) in enumerate(d.edges):
        stubs[a].append(("e", idx))
        stubs[b].append(("e", idx))
    for pos, v in enumerate(d.inputs):
        stubs[v].append(("in", pos))
    for pos, v in enumerate(d.outputs):
        stubs[v].append(("out", pos))

    parts = []
    for v in d.vertices():
        labels = stubs[v]
        tensor = _vertex_tensor(d, v, len(labels))
        labels, tensor = _trace_repeats(list(labels), tensor)
        parts.append((labels, tensor))

    def result_size(a, b) -> int:
        shared = len([lab for lab in a[0] if lab in b[0]])
        return len(a[0]) + len(b[0]) - 2 * shared

    while True:
        candidates = [
            (i, j)
            for i in range(len(parts))
            for j in range(i + 1, len(parts))
            if any(lab in parts[j][0] for lab in parts[i][0])
        ]
        if not candidates:
            break
        if order == "greedy":
            i, j = min(candidates, key=lambda ij: (result_size(parts[ij[0]], parts[ij[1]]), ij))
        else:
            i, j = candidates[0]
        merged = _contract_pair(parts[i], parts[j])
        if len(merged[0]) > max_qubits:
            raise ResourceLimitError(
                f"intermediate tensor with {len(merged[0])} wires exceeds the cap "
                f"of {max_qubits}"
            )
        parts = [p for k, p in enumerate(parts) if k not in (i, j)]
        parts.append(merged)

    labels: list = []
    tensor = np.asarray(1.0 + 0j)
    for lab, t in parts:
        tensor = np.tensordot(tensor, t, axes=0)
        labels = labels + lab

    want = [("out", k) for k in range(m)] + [("in", k) for k in range(n)]
    perm = [labels.index(lab) for lab in want]
    tensor = np.transpose(tensor, perm) if perm else tensor
    return np.asarray(tensor, dtype=complex).reshape(2**m, 2**n)
