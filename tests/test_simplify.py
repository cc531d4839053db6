import hashlib
import random
from collections import Counter, defaultdict
from operator import countOf
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, note, settings

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
from zxcalc.rewrite.rules import FuseRule, _linked_pairs
from zxcalc.rewrite.simplify import _FULL_EXTRA, _SAFE_RULES, _safe_b1_filter
from zxcalc.rewrite.soundness import embed_lhs
from zxcalc.protocols import cnot, ghz_state, wire

from oracles import component, exactly_equal, isomorphic, lhs_samples, proportional
from test_graph import _diagrams

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


@settings(max_examples=300, deadline=None)
@given(_diagrams())
def test_simplify_is_exact_property(d):
    """The same exactness on drawn diagrams (parallel edges, self-loops, H
    boxes, a random scalar); a failure shrinks to a minimal .zxg repro."""
    note(serialize_zxg(d))
    before = evaluate(d)
    for strategy, limit in (("safe", 1000), ("full", 100)):
        out, _ = simplify(d, strategy=strategy, step_limit=limit)
        assert exactly_equal(evaluate(out), before), strategy


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
    ``list(rule.iter_matches(d))[0]`` of the first rule, in priority order, that has one."""
    rules = [(name, get_rule(name)) for name in _SAFE_RULES]
    if strategy == "full":
        rules += [(name, get_rule(name, direction)) for name, direction in _FULL_EXTRA]
    trace = _SnapshotTrace()
    trace.record("start", d)
    while len(trace.snapshots) <= 1000:
        for name, rule in rules:
            matches = list(rule.iter_matches(d))
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
    return diagrams + lhs_samples()


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


def _ladder(n):
    d = cnot()
    for _ in range(n - 1):
        d = d.compose(cnot())
    return d


@pytest.mark.parametrize("n", [50, 100, 200])
def test_safe_simplify_matcher_work_is_flat_on_ladders(monkeypatch, n):
    """Colour-pruned candidates reach the first match at once: on a CNOT
    ladder each safe step checks about one S1 candidate, whatever n is."""
    calls = {}
    for cls in {type(get_rule(name)) for name in _SAFE_RULES}:
        def counted(self, d, m, _holds=cls.holds, _name=cls.__name__):
            calls[_name] = calls.get(_name, 0) + 1
            return _holds(self, d, m)

        monkeypatch.setattr(cls, "holds", counted)
    _, trace = simplify(_ladder(n))
    assert len(trace) == 2 * n - 2
    assert calls["FuseRule"] / len(trace) <= 1.1
    assert sum(calls.values()) / len(trace) <= 1.1


class _CountingIncidences(dict):
    """An incidence record that counts the passes over every vertex's map:
    each call of ``items``, ``values``, ``keys`` or ``iter``."""

    passes = 0

    def _counted(method):
        def pass_over(self):
            self.passes += 1
            return method(self)

        return pass_over

    __iter__ = _counted(dict.__iter__)
    items = _counted(dict.items)
    values = _counted(dict.values)
    keys = _counted(dict.keys)
    del _counted


def test_safe_simplify_makes_no_whole_diagram_pass_per_step(monkeypatch):
    """The matchers read the degree index and the self-loop counts, not
    every vertex's incidences: on CNOT ladders the passes over the whole
    record of simplify's private copy do not grow with the step count."""
    ladders = {n: _ladder(n) for n in (50, 100, 200)}
    copy, records = Diagram.copy, []

    def counting_copy(self):
        d = copy(self)
        d._inc = _CountingIncidences(d._inc)
        records.append(d._inc)
        return d

    monkeypatch.setattr(Diagram, "copy", counting_copy)
    passes = {}
    for n, d in ladders.items():
        records.clear()
        _, trace = simplify(d)
        assert len(trace) == 2 * n - 2
        passes[n] = sum(r.passes for r in records)
    assert passes[50] == passes[100] == passes[200] <= 1, passes


def _assert_indexes_match_incidences(d):
    loops = {v: countOf(inc.values(), v) // 2 for v, inc in d._inc.items()}
    assert d.looped() == sorted(v for v, k in loops.items() if k)
    assert all(d.self_loops(v) == k for v, k in loops.items())
    degrees = {v: len(inc) for v, inc in d._inc.items()}
    for k in range(max(degrees.values(), default=0) + 2):
        assert d._of_degree(k) == sorted(v for v, n in degrees.items() if n == k)
    spiders = {v for v, ty in d.types.items() if ty.is_spider()}
    linked = {
        (v, w): d.types[v] is d.types[w]
        for v in spiders
        for w in d._inc[v].values()
        if w > v and w in spiders
    }
    assert d._linked == linked
    for same in (True, False):
        pairs = sorted(p for p, s in linked.items() if s is same)
        assert set(d._pair_heaps[same]) >= set(pairs)  # every pair can reach the top
        assert list(_linked_pairs(d, same)) == pairs


def test_indexes_stay_exact_through_every_simplify_step(monkeypatch):
    """After each in-place step of ``simplify`` on the committed samples,
    ``looped``, ``self_loops`` and the degree index equal what the
    incidence maps give when recounted."""
    steps = []
    rules = {type(get_rule(name)) for name in _SAFE_RULES}
    rules |= {type(get_rule(name, direction)) for name, direction in _FULL_EXTRA}
    for cls in rules:
        def checked(self, d, m, _rewrite=cls._rewrite):
            _rewrite(self, d, m)
            _assert_indexes_match_incidences(d)
            steps.append(m.rule)

        monkeypatch.setattr(cls, "_rewrite", checked)
    for d in lhs_samples():
        simplify(d)
        simplify(d, strategy="full", step_limit=50)
    assert set(steps) == set(_SAFE_RULES) | {name for name, _ in _FULL_EXTRA}


def test_linked_pair_index_follows_colour_changes_plugs_and_composes(monkeypatch):
    """Colour changes in place (C forward and backward, and a pin plugged
    in place through ``_retype``) keep the indexes exact, and so does every
    in-place simplify step on ``plugged`` and ``compose`` results."""
    colour_change = get_rule("C"), get_rule("C", BACKWARD)
    flips = plugs = 0
    for d in lhs_samples()[::4]:
        d._of_degree(0)  # build the indexes, then edit under them
        for rule in colour_change * 2:
            m = next(rule.iter_matches(d), None)
            if m is not None:
                rule._rewrite(d, m)
                _assert_indexes_match_incidences(d)
                flips += 1
        if d.outputs:
            pin = d.outputs.pop()
            d._retype(pin, X, Phase.pi())
            _assert_indexes_match_incidences(d)
            plugs += 1
    assert flips > 50 and plugs > 20

    steps = []
    for cls in {type(get_rule(name)) for name in _SAFE_RULES}:
        def checked(self, d, m, _rewrite=cls._rewrite):
            _rewrite(self, d, m)
            _assert_indexes_match_incidences(d)
            steps.append(m.rule)

        monkeypatch.setattr(cls, "_rewrite", checked)
    ghz = ghz_state()
    for d in (ghz.plugged("output", k, point) for k in range(3) for point in ("z+", "x-")):
        _assert_indexes_match_incidences(d)
        simplify(d)
    for n in (1, 2, 3):
        simplify(_ladder(n).compose(_ladder(n)))
    assert {"S1", "B1", "HOPF"} <= set(steps)


def _relabeled_text(d, rng):
    """d's .zxg text with node names permuted and node and edge lines
    shuffled, as the benchmark's ladder workload feeds it."""
    lines = serialize_zxg(d).splitlines()
    nodes = [ln.split() for ln in lines if ln.startswith("node ")]
    new = dict(zip((p[1] for p in nodes), rng.sample([f"v{k}" for k in range(len(nodes))], len(nodes))))
    nodes = [" ".join(["node", new[p[1]], *p[2:]]) for p in nodes]
    rest = [ln.split() for ln in lines if not ln.startswith("node ")]
    edges = [" ".join([p[0], *map(new.get, p[1:])]) for p in rest if p[0] == "edge"]
    io = [" ".join([p[0], *map(new.get, p[1:])]) for p in rest if p[0] != "edge"]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return "\n".join(nodes + edges + io) + "\n"


def test_safe_simplify_holds_calls_per_step_on_relabeled_ladders(monkeypatch):
    """With vertex ids in random order, the linked-pair index still hands
    each safe step its match at once: about one ``holds`` call per step."""
    ladder = _ladder(59)
    texts = [_relabeled_text(ladder, random.Random(seed)) for seed in range(3)]
    calls = []
    for cls in {type(get_rule(name)) for name in _SAFE_RULES}:
        def counted(self, d, m, _holds=cls.holds):
            calls.append(m.rule)
            return _holds(self, d, m)

        monkeypatch.setattr(cls, "holds", counted)
    for text in texts:
        d = parse_zxg(text)
        assert serialize_zxg(d) != serialize_zxg(ladder)
        calls.clear()
        out, trace = simplify(d)
        assert len(trace) > 100 and out.num_vertices() < d.num_vertices()
        assert len(calls) / len(trace) <= 1.1, (len(calls), len(trace))


def _all_vertex_pairs(d, same_colour):
    """The linked-pair candidates as they were found before the index: every
    vertex in id order, then its linked spiders of the wanted colour."""
    types = d.types
    for u in d.vertices():
        ty = types[u]
        if ty.is_spider():
            want = ty if same_colour else ty.opposite
            for v in sorted(w for w in set(d._inc[u].values()) if w > u and types[w] is want):
                yield u, v


def test_linked_pair_candidates_match_the_all_vertex_scan():
    """On every committed sample the S1 and HOPF candidates, the first one
    above all, are those of the old scan over every vertex."""
    found = 0
    for d in lhs_samples():
        for rule, same in ((get_rule("S1"), True), (get_rule("HOPF"), False)):
            expected = list(_all_vertex_pairs(d, same))
            first = next(rule.candidates(d), None)
            assert (first and (first["u"], first["v"])) == (expected[0] if expected else None)
            assert [(m["u"], m["v"]) for m in rule.candidates(d)] == expected
            found += bool(expected)
    assert found > 200


def _untouched_corpus():
    diagrams = [parse_zxg(p.read_text()) for p in sorted(DIAGRAMS.glob("*.zxg"))]
    diagrams += [_ladder(12), ghz_state().plugged("output", 0, "z+")]
    pairs = [(name, FORWARD) for name in RULE_NAMES] + [
        (name, BACKWARD) for name in ("S1", "B2", "C")
    ]
    rng = random.Random(25)
    for name, direction in pairs:
        for _ in range(3):
            d = random_diagram(rng)
            embed_lhs(name, direction, d, rng)
            diagrams.append(d)
    return diagrams


def test_simplify_leaves_its_input_and_trace_start_untouched():
    """simplify rewrites a private copy in place: the input, the trace's
    start and the replayed result are unaffected by its steps."""
    for d in _untouched_corpus():
        before = (serialize_zxg(d), d.scalar, d._next_id)
        for strategy in ("safe", "full"):
            out, trace = simplify(d, strategy=strategy)
            assert (serialize_zxg(d), d.scalar, d._next_id) == before
            start = trace.start
            assert (serialize_zxg(start), start.scalar, start._next_id) == before
            *_, (_, _, replayed) = trace.replay()
            assert serialize_zxg(replayed) == serialize_zxg(out)


def _fuse_by_removal(d, u, v):
    """S1's rewrite as it was first written: v's legs, then ``remove_vertex(v)``
    and one ``_link`` per leg that does not end at u."""
    d.phases[u] = d.phases[u] + d.phases[v]
    legs = [w for e, w in d._inc[v].items() if e >= 0]
    d.remove_vertex(v)
    for w in legs:
        if w != u:
            d._link(u, u if w == v else w)


def _copy_with_indexes(d):
    """``d.copy()`` with the degree and linked-pair indexes too, if built."""
    out = d.copy()
    if d._linked is not None:
        out._by_degree = defaultdict(set, {k: set(vs) for k, vs in d._by_degree.items()})
        out._linked = dict(d._linked)
        out._pair_heaps = (list(d._pair_heaps[0]), list(d._pair_heaps[1]))
    return out


def _whole_state(d):
    """Everything a diagram holds, orders included; degree-index entries
    that are empty sets count as absent."""
    by_degree = d._by_degree and {k: vs for k, vs in d._by_degree.items() if vs}
    return (
        list(d.types.items()),
        list(d.phases.items()),
        [(v, list(inc.items())) for v, inc in d._inc.items()],
        list(d._loops.items()),
        (d._next_id, d._next_edge, d.inputs, d.outputs, d.scalar),
        by_degree,
        d._linked and list(d._linked.items()),
        d._pair_heaps,
    )


def test_in_place_fusion_equals_remove_and_relink(monkeypatch):
    """Every S1 step of the safe and full simplify of the committed samples,
    ``diagrams/*.zxg`` and relabelled ladders, of their replays through
    ``apply`` (whose copy has no indexes yet), and every S1 match of each
    sample leaves exactly the state that removing v and linking its other
    legs to u leaves."""
    seen = Counter()
    rewrite = FuseRule._rewrite

    def checked(self, d, m):
        u, v = m["u"], m["v"]
        seen["indexed" if d._linked is not None else "bare"] += 1
        seen["self-loop"] += d.self_loops(v) > 0
        seen["parallel"] += d.edge_count(u, v) > 1
        seen["to a non-spider"] += any(not d.types[w].is_spider() for w in d._inc[v].values())
        expected = _copy_with_indexes(d)
        _fuse_by_removal(expected, u, v)
        rewrite(self, d, m)
        assert _whole_state(d) == _whole_state(expected)

    monkeypatch.setattr(FuseRule, "_rewrite", checked)
    ladder = _ladder(59)
    corpus = [parse_zxg(p.read_text()) for p in sorted(DIAGRAMS.glob("*.zxg"))]
    corpus += [parse_zxg(_relabeled_text(ladder, random.Random(seed))) for seed in range(3)]
    for d in corpus + lhs_samples():
        for strategy in ("safe", "full"):
            _, trace = simplify(d, strategy=strategy, step_limit=200)
            for _ in trace.replay():
                pass
    # simplify removes self-loops (S2b) before it fuses: fuse every match too
    fuse = FuseRule()
    for d in lhs_samples():
        d._of_degree(0)  # builds the indexes
        for m in list(fuse.iter_matches(d)):
            fuse._rewrite(_copy_with_indexes(d), m)
            fuse._rewrite(d.copy(), m)
    assert seen["indexed"] > 1000 and seen["bare"] > 1000, seen
    assert min(seen.values()) > 20, seen


def test_safe_simplify_regrades_once_per_fusion_on_relabeled_ladders(monkeypatch):
    """A fusion refiles only u in the degree index: v's neighbours keep
    their degrees, so they are never regraded."""
    d = parse_zxg(_relabeled_text(_ladder(59), random.Random(0)))
    regrade, calls = Diagram._regrade, []

    def counted(self, v, degree, change):
        calls.append(v)
        regrade(self, v, degree, change)

    monkeypatch.setattr(Diagram, "_regrade", counted)
    _, trace = simplify(d)
    assert trace.rules_used() == ["S1"] * 116
    assert len(calls) <= len(trace), (len(calls), len(trace))
