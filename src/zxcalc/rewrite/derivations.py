"""Scripted derivation replays.

Each script is the match log of a :class:`~zxcalc.rewrite.Trace` over a
constructed start diagram.  The runner verifies as it replays: it evaluates
each diagram the replay yields and aborts if a step's match no longer holds
or the diagram no longer evaluates exactly as the start does, its scalar
included.  The scripts end in diagrams whose evaluation is checked against
the known closed forms, which are stated up to a scalar:

=============  ===============================================================
hopf           two-wire Z/X pair disconnects into a point pair
rule_a         a pi point absorbs through a phased spider onto its legs
ghz_plug0/1    plugging z+ / z- into GHZ leaves |00> / |11>
w_plug0/1      plugging z+ / z- into the W state leaves |01>+|10> / |00>
qkd_core       decider z+ with equal x effects reduces to a nonzero scalar
=============  ===============================================================

Step sequences reference vertex ids directly; this is safe because id
allocation is deterministic (a per-diagram monotone counter) and ``apply``
re-checks every match before rewriting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..graph import DEFAULT_TOLERANCE, Diagram, VertexType
from ..phase import Phase
from .rules import BACKWARD, _match, get_rule, unfuse_match
from .simplify import Trace

if TYPE_CHECKING:
    import numpy as np

Z, X = VertexType.Z, VertexType.X


class ReplayError(Exception):
    """A scripted step failed to match or broke semantic equality."""


def _forward(name: str):
    """A maker of forward log entries whose vertex ids fill the roles in order."""
    rule = get_rule(name)
    return lambda *ids: (name, rule, _match(name, **dict(zip(rule.roles, ids))))


def _unfuse(v: int, legs: tuple, phase: Phase) -> tuple:
    return ("S1", get_rule("S1", BACKWARD), unfuse_match(v, legs, phase))


_s1, _s2a, _b1, _k1, _k2, _d1, _hopf = map(
    _forward, ("S1", "S2a", "B1", "K1", "K2", "D1", "HOPF"))

_T_STEP = ("T", None, None)


def _hopf_start() -> Diagram:
    d = Diagram()
    z = d.add_vertex(Z, Phase.zero())
    x = d.add_vertex(X, Phase.zero())
    d.add_input(z)
    d.add_output(x)
    d.add_edge(z, x)
    d.add_edge(z, x)
    return d


def _rule_a_start() -> Diagram:
    d = Diagram()
    s = d.add_vertex(Z, Phase(1, 3))
    p = d.add_vertex(X, Phase.pi())
    d.add_edge(p, s)
    d.add_output(s)
    d.add_output(s)
    return d


# The start states come from protocols, and the checks from semantics, both
# imported at call time: importing this module (and so zxcalc.rewrite) loads
# no numpy.
def _ghz_plugged(point: str) -> Diagram:
    """The GHZ state with ``point`` plugged into its first output."""
    from ..protocols import ghz_state

    return ghz_state().plugged("output", 0, point)


def _w_plugged(*points: str) -> Diagram:
    """The W state with ``points`` plugged into its outputs in order."""
    from ..protocols import w_state

    d = w_state()
    for point in points:
        d = d.plugged("output", 0, point)
    return d


# w_plug0's script, which qkd_core extends: z+ fuses into wire 1 of the W
# state and copies through it; the carrier branch collapses, leaving the
# two-wire odd-parity spider.  W-state ids: wires 0,1,2; parity 3; carrier
# 4; gadgets 5,6,7; gadget points 8,9,10; boundaries 11,12,13.
_W_PLUG0 = [
    _unfuse(0, (), Phase(1, 4)),  # wire-1 phase off as point 14
    _b1(11, 0),  # copy: points 15, 16, 17
    _d1(14, 17),
    _s1(3, 15),  # parity absorbs the copy
    _s1(5, 16),  # gadget absorbs the copy
    _s2a(5),  # gadget is now an identity
    _s1(4, 8),  # carrier eats its gadget point
    _s2a(4),  # carrier is now an identity
    _s1(6, 7),  # remaining gadgets fuse
]


# Each entry: (builder, steps, expected matrix up to scalar, as rows).
_DERIVATIONS: dict[str, tuple] = {
    # Z(0)=X(0) pair joined twice; unfuse both spiders, disconnect the inner
    # pair, fuse the halves back: the wire splits into a point pair.
    "hopf": (
        _hopf_start,
        [
            _T_STEP,  # topology move: relabel only
            _unfuse(4, ((5, 2),), Phase.zero()),  # split Z -> 4 - 8
            _unfuse(5, ((8, 2),), Phase.zero()),  # split X -> 9 - 5
            _hopf(8, 9),  # inner pair disconnects
            _s1(4, 8),
            _s1(5, 9),
        ],
        ((1, 1), (0, 0)),
    ),
    # X(pi) point on a Z(a) spider: detach the phase as a point, pi-copy
    # through the now-free spider, drop the closed scalar pair.
    "rule_a": (
        _rule_a_start,
        [
            _unfuse(0, (), Phase(1, 3)),  # phase moves to point 4
            _k1(1, 0),  # pi-copy: points 5, 6, 7
            _d1(4, 7),  # closed scalar pair vanishes
        ],
        ((0,), (0,), (0,), (1,)),
    ),
    "ghz_plug0": (
        lambda: _ghz_plugged("z+"),
        [_b1(1, 0)],
        ((1,), (0,), (0,), (0,)),
    ),
    "ghz_plug1": (
        lambda: _ghz_plugged("z-"),
        [_k1(1, 0)],
        ((0,), (0,), (0,), (1,)),
    ),
    "w_plug0": (
        lambda: _w_plugged("z+"),
        _W_PLUG0,
        ((0,), (1,), (1,), (0,)),
    ),
    # z- pushes a pi through the same structure; the parity spider absorbs
    # it and drops out, disconnecting wire 1 entirely.
    "w_plug1": (
        lambda: _w_plugged("z-"),
        [
            _unfuse(0, (), Phase(1, 4)),
            _k1(11, 0),  # pi-copy: points 15, 16, 17
            _d1(14, 17),
            _s1(3, 15),  # parity becomes X(0), an identity
            _s2a(3),
            _s1(5, 16),  # gadget becomes X(pi)
            _k2(5, 8),  # pi commutes onto the gadget point
            _s1(4, 8),
            _s1(1, 2),  # wires 2 and 3 fuse
        ],
        ((1,), (0,), (0,), (0,)),
    ),
    # Full measured round: the decider gets z+ on wire 1 and both x
    # measurements read x- (equal).  After w_plug0's steps the diagram
    # closes up and collapses to the nonzero scalar Z(0) spider (value 2),
    # the equal-outcome witness; unequal outcomes would leave Z(pi) = 0.
    "qkd_core": (
        lambda: _w_plugged("z+", "x-", "x-"),
        _W_PLUG0 + [
            _s1(1, 12),  # x- effect fuses into wire 2
            _s1(2, 13),  # x- effect fuses into wire 3
            _k2(3, 1),  # parity pi commutes through wire 2
            _s1(1, 2),  # measurement phases cancel: Z(0)
            _s2a(1),
            _s1(6, 18),  # pi lands back on the merged gadget
            _k2(6, 9),  # and commutes onto a gadget point
            _s1(9, 10),  # phases cancel: the scalar Z(0)
        ],
        ((1,),),
    ),
}

DERIVATION_NAMES = tuple(sorted(_DERIVATIONS))


def expected_final(name: str) -> np.ndarray:
    """The paper-level closed form the replay must reach, up to scalar."""
    import numpy as np

    return np.array(_DERIVATIONS[name][2], dtype=complex)


def replay_derivation(name: str) -> Trace:
    """Run a scripted derivation end to end and return its trace.

    Every step is checked to evaluate exactly as the start does, and the
    final diagram against the expected closed form up to a scalar; any
    mismatch, or a step that no longer applies, raises :class:`ReplayError`.
    """
    import numpy as np

    from ..semantics import equal_up_to_scalar, evaluate

    try:
        builder, steps, _ = _DERIVATIONS[name]
    except KeyError:
        raise ReplayError(
            f"unknown derivation {name!r}; expected one of {DERIVATION_NAMES}"
        ) from None
    expected = expected_final(name)
    trace = Trace(builder(), list(steps))
    replay = trace.replay()
    _, _, d = next(replay)
    final = reference = evaluate(d)
    for _, _, match in steps:
        try:
            _, summary, d = next(replay)
        except Exception as exc:
            raise ReplayError(f"{name}: step {match.summary()} failed: {exc}") from exc
        final = evaluate(d)
        residual = float(np.max(np.abs(final - reference)))
        if residual > DEFAULT_TOLERANCE * max(1.0, float(np.max(np.abs(reference)))):
            raise ReplayError(
                f"{name}: step {summary} broke semantics (residual {residual:.3e})"
            )
    if expected.shape != final.shape:
        raise ReplayError(
            f"{name}: final shape {final.shape} != expected {expected.shape}"
        )
    verdict = equal_up_to_scalar(final, expected)
    if not verdict.equal:
        raise ReplayError(
            f"{name}: final diagram does not match the expected form "
            f"(residual {verdict.max_residual:.3e})"
        )
    return trace
