import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from zxcalc.graph import Diagram, VertexType, parse_zxg, serialize_zxg
from zxcalc.phase import Phase, Scalar
from zxcalc.semantics import equal_up_to_scalar, evaluate
from zxcalc.rewrite import (
    BACKWARD,
    FORWARD,
    RULE_NAMES,
    StaleMatchError,
    get_rule,
    random_diagram,
    simplify,
)
from zxcalc.rewrite.simplify import _FULL_EXTRA, _SAFE_RULES, _safe_b1_filter
from zxcalc.rewrite.soundness import embed_lhs
from zxcalc.protocols import cnot, ghz_state, wire

from oracles import component, exactly_equal, isomorphic, proportional

Z, X = VertexType.Z, VertexType.X

DIAGRAMS = Path(__file__).resolve().parent.parent / "diagrams"

# sha256 over every trace of test_simplify_traces_pinned, taken with the
# all-matches simplify loop (the one _all_matches_simplify restates)
TRACE_DIGEST = "6223af7b87b460a381d4d4654d6163432eb616e9f786273610906679b24ec7be"


def test_already_minimal_is_untouched():
    out, trace = simplify(wire())
    assert len(trace) == 0
    assert not trace.truncated
    assert isomorphic(out, wire())


def test_hopf_shape_simplifies_fully():
    d = Diagram()
    z = d.add_vertex(Z, Phase(0))
    x = d.add_vertex(X, Phase(0))
    d.add_edge(z, x)
    d.add_edge(z, x)
    d.add_input(z)
    d.add_output(x)
    out, trace = simplify(d, strategy="full")
    assert 1 <= len(trace) <= 6
    assert proportional(evaluate(out), evaluate(d))
    # input and output ended up in different components
    comp = component(out, out.inputs[0])
    assert out.outputs[0] not in comp


def test_ghz_plug_safe_reaches_two_points():
    d = ghz_state().plugged("output", 0, "z+")
    out, trace = simplify(d, strategy="safe")
    assert proportional(evaluate(out).reshape(-1), [1, 0, 0, 0])
    spiders = [v for v in out.vertices() if out.types[v].is_spider()]
    assert len(spiders) == 2
    assert all(out.types[v] is X and out.phases[v].is_zero() for v in spiders)
    assert all(out.degree(v) == 1 for v in spiders)


def test_safe_preserves_semantics_and_terminates_within_measure():
    rng = random.Random(21)
    for _ in range(120):
        d = random_diagram(rng, max_vertices=7, max_boundaries=3)
        budget = d.num_vertices() + d.num_edges() + 1
        out, trace = simplify(d, strategy="safe", step_limit=budget)
        assert not trace.truncated  # each safe step strictly shrinks v+e
        assert len(trace) < budget
        assert equal_up_to_scalar(evaluate(out), evaluate(d)).equal


def test_full_preserves_semantics_under_limit():
    rng = random.Random(22)
    for _ in range(60):
        d = random_diagram(rng, max_vertices=7, max_boundaries=3)
        out, trace = simplify(d, strategy="full", step_limit=60)
        assert equal_up_to_scalar(evaluate(out), evaluate(d)).equal


def test_full_uses_supplementarity():
    d = Diagram()
    t = d.add_vertex(X, Phase(0))
    for _ in range(2):
        p = d.add_vertex(Z, Phase(1))
        d.add_edge(t, p)
    d.add_output(t)
    out, trace = simplify(d, strategy="full")
    assert "E" in trace.rules_used()
    assert proportional(evaluate(out), evaluate(d))


def test_step_limit_flags_truncation():
    # the default run takes three steps: B1, S1, D2
    d = ghz_state().plugged("output", 0, "z+").plugged("output", 1, "z+")
    out, trace = simplify(d, step_limit=1)
    assert trace.truncated
    assert len(trace) == 1
    assert equal_up_to_scalar(evaluate(out), evaluate(d)).equal


def test_last_allowed_step_reaching_the_normal_form_is_not_truncated():
    d = parse_zxg((DIAGRAMS / "hopf_lhs.zxg").read_text())
    out, trace = simplify(d, step_limit=1)
    default, _ = simplify(d)
    assert not trace.truncated and trace.rules_used() == ["HOPF"]
    assert serialize_zxg(out) == serialize_zxg(default)
    assert "truncated" not in trace.render()
    # B1 still matches the safe normal form here, but copying the point
    # through the three-legged X spider would grow it, so no step is left
    d = parse_zxg(
        "node 0 X 0\nnode 1 Z 0\nnode 2 Z 1/2\nnode 3 B\nnode 4 B\n"
        "edge 0 1\nedge 0 2\nedge 0 3\nedge 0 4\nedge 1 1\ninputs 4\noutputs 3\n"
    )
    out, trace = simplify(d, step_limit=1)
    assert trace.rules_used() == ["S2b"] and not trace.truncated
    assert next(get_rule("B1").iter_matches(out), None) is not None


def test_safe_runs_agree_up_to_scalar_under_reordering():
    # determinism of one run, and value-agreement of a vertex-relabeled run
    rng = random.Random(23)
    for _ in range(40):
        d = random_diagram(rng, max_vertices=7, max_boundaries=3)
        out1, _ = simplify(d)
        ids = d.vertices()
        shuffled = ids[:]
        rng.shuffle(shuffled)
        out2, _ = simplify(d.relabeled(dict(zip(ids, shuffled))))
        assert equal_up_to_scalar(evaluate(out1), evaluate(out2)).equal


def test_trace_snapshots_parse_and_chain():
    d = ghz_state().plugged("output", 0, "z-")
    out, trace = simplify(d, strategy="full")
    assert trace.steps[0].rule == "start"
    assert len(trace) >= 1
    for step in trace.steps:
        parse_zxg(step.snapshot)
    final = parse_zxg(trace.steps[-1].snapshot)
    assert isomorphic(final, out)
    assert out.scalar != Scalar() and final.scalar == out.scalar


def test_trace_render_format():
    d = ghz_state().plugged("output", 0, "z+")
    _, trace = simplify(d)
    text = trace.render()
    assert text.startswith("step 0: start")
    assert "step 1: " in text
    assert " at [" in text


def test_trace_keeps_a_copy_of_its_start():
    d = ghz_state().plugged("output", 0, "z+")
    _, trace = simplify(d)
    text = trace.render()
    d.remove_vertex(d.vertices()[0])
    d.add_vertex(Z, Phase(1))
    assert trace.render() == text


def test_replaying_a_stale_match_raises():
    d = ghz_state().plugged("output", 0, "z+")
    _, trace = simplify(d)
    trace.log.append(trace.log[0])  # its vertices were rewritten away by step 1
    with pytest.raises(StaleMatchError):
        trace.render()
    with pytest.raises(StaleMatchError):
        trace.steps


def test_simplify_is_exact():
    """Every step multiplies its factor into the diagram's scalar, so the
    result evaluates exactly as the input: no scalar freedom."""
    rng = random.Random(24)
    samples = [random_diagram(rng, max_vertices=6, max_boundaries=3) for _ in range(60)]
    for d in samples:
        before = evaluate(d)
        for strategy in ("safe", "full"):
            out, _ = simplify(d, strategy=strategy)
            assert exactly_equal(evaluate(out), before), serialize_zxg(d)


class _SnapshotTrace:
    """A trace that serialises the diagram after every step as the run goes,
    rendered in the format of ``Trace.render``: a frozen reference for the
    replayed traces."""

    def __init__(self):
        self.snapshots = []
        self.truncated = False

    def record(self, summary, d):
        self.snapshots.append((summary, serialize_zxg(d)))

    def render(self):
        lines = []
        for n, (summary, snapshot) in enumerate(self.snapshots):
            lines.append(f"step {n}: {summary}")
            lines.extend("  " + ln for ln in snapshot.splitlines())
        if self.truncated:
            lines.append("truncated: step limit reached")
        return "\n".join(lines) + "\n"


def _all_matches_simplify(d, strategy):
    """The simplify loop written with full match lists: every step applies
    ``find_matches(d)[0]`` of the first rule, in priority order, that has one."""
    rules = [(name, get_rule(name)) for name in _SAFE_RULES]
    if strategy == "full":
        rules += [(name, get_rule(name, direction)) for name, direction in _FULL_EXTRA]
    trace = _SnapshotTrace()
    trace.record("start", d)
    while len(trace.snapshots) <= 1000:
        for name, rule in rules:
            matches = rule.find_matches(d)
            if name == "B1" and strategy == "safe":
                matches = [m for m in matches if _safe_b1_filter(d, m)]
            if matches:
                d = rule.apply(d, matches[0])
                trace.record(matches[0].summary(), d)
                break
        else:
            return d, trace
    trace.truncated = True
    return d, trace


def _trace_corpus():
    diagrams = [parse_zxg(p.read_text()) for p in sorted(DIAGRAMS.glob("*.zxg"))]
    ladder = cnot()
    diagrams.append(ladder)
    for _ in range(39):
        ladder = ladder.compose(cnot())
        diagrams.append(ladder)
    pairs = [(name, FORWARD) for name in RULE_NAMES] + [
        (name, BACKWARD) for name in ("S1", "B2", "C")
    ]
    rng = random.Random(0)
    for name, direction in pairs:
        for _ in range(25):
            d = random_diagram(rng)
            embed_lhs(name, direction, d, rng)
            diagrams.append(d)
    return diagrams


def test_simplify_traces_pinned():
    """Every trace and result of simplify is pinned, and the replayed trace
    equals the snapshots of a loop that takes the first element of each
    rule's full match list."""
    texts = []
    for d in _trace_corpus():
        for strategy in ("safe", "full"):
            out, trace = simplify(d, strategy=strategy)
            text = trace.render() + serialize_zxg(out)
            ref_out, ref_trace = _all_matches_simplify(d, strategy)
            assert text == ref_trace.render() + serialize_zxg(ref_out)
            texts.append(text)
    assert len(texts) == 894
    digest = hashlib.sha256("\x00".join(texts).encode()).hexdigest()
    assert digest == TRACE_DIGEST
