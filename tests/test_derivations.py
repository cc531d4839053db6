import numpy as np
import pytest

from zxcalc.graph import parse_zxg
from zxcalc.phase import Scalar
from zxcalc.semantics import equal_up_to_scalar, evaluate
from zxcalc.rewrite import DERIVATION_NAMES, ReplayError, replay_derivation
from zxcalc.rewrite.derivations import expected_final
from zxcalc.rewrite.rules import HopfRule

from cli_process import run_python_process
from oracles import component, exactly_equal, proportional


def final_diagram(trace):
    return parse_zxg(trace.steps[-1].snapshot)


def test_all_derivations_replay_clean():
    assert set(DERIVATION_NAMES) == {
        "hopf",
        "rule_a",
        "ghz_plug0",
        "ghz_plug1",
        "w_plug0",
        "w_plug1",
        "qkd_core",
    }
    for name in DERIVATION_NAMES:
        trace = replay_derivation(name)  # checks every step
        assert len(trace) >= 1


def test_every_step_is_semantics_preserving():
    """The .zxg snapshots carry the scalar, so each parsed snapshot evaluates
    exactly as the start does."""
    for name in DERIVATION_NAMES:
        trace = replay_derivation(name)
        snapshots = [parse_zxg(s.snapshot) for s in trace.steps]
        reference = evaluate(snapshots[0])
        for snap in snapshots[1:]:
            assert exactly_equal(evaluate(snap), reference), name


def test_each_step_evaluates_exactly_as_the_start():
    """The replayed diagrams carry their scalar, so no step may change the
    value at all, not even by a global factor."""
    for name in DERIVATION_NAMES:
        diagrams = [d for _, _, d in replay_derivation(name).replay()]
        start = evaluate(diagrams[0])
        for d in diagrams[1:]:
            assert exactly_equal(evaluate(d), start, tol=1e-12), name


def test_a_wrong_factor_breaks_the_replay(monkeypatch):
    rewrite = HopfRule._rewrite

    def off_by_sqrt2(self, d, m):
        rewrite(self, d, m)
        d.scalar = d.scalar * Scalar(1)

    monkeypatch.setattr(HopfRule, "_rewrite", off_by_sqrt2)
    with pytest.raises(ReplayError, match=r"^hopf: step HOPF at \[8, 9\] broke semantics"):
        replay_derivation("hopf")


def test_hopf_six_steps_ending_disconnected():
    trace = replay_derivation("hopf")
    assert len(trace) == 6
    assert trace.rules_used() == ["T", "S1", "S1", "HOPF", "S1", "S1"]
    out = final_diagram(trace)
    comp = component(out, out.inputs[0])
    assert out.outputs[0] not in comp
    assert proportional(evaluate(out), np.array([[1, 1], [0, 0]]))


def test_ghz_plugs():
    t0 = replay_derivation("ghz_plug0")
    assert proportional(evaluate(final_diagram(t0)).reshape(-1), [1, 0, 0, 0])
    t1 = replay_derivation("ghz_plug1")
    assert proportional(evaluate(final_diagram(t1)).reshape(-1), [0, 0, 0, 1])
    assert "B1" in t0.rules_used()
    assert "K1" in t1.rules_used()


def test_w_plugs():
    t0 = replay_derivation("w_plug0")
    assert proportional(evaluate(final_diagram(t0)).reshape(-1), [0, 1, 1, 0])
    t1 = replay_derivation("w_plug1")
    assert proportional(evaluate(final_diagram(t1)).reshape(-1), [1, 0, 0, 0])


def test_rule_a_matches_its_rule():
    from zxcalc.rewrite import get_rule
    from zxcalc.rewrite.derivations import _rule_a_start

    trace = replay_derivation("rule_a")
    derived = final_diagram(trace)
    # the replay derives exactly what the A rule does in one step
    start = _rule_a_start()
    rule = get_rule("A")
    direct = rule.apply(start, list(rule.iter_matches(start))[0])
    assert equal_up_to_scalar(evaluate(derived), evaluate(direct)).equal
    # and with the scalars the replay carries, the same value exactly
    *_, (_, _, replayed) = trace.replay()
    assert exactly_equal(evaluate(replayed), evaluate(direct), tol=1e-12)


def test_qkd_core_ends_in_nonzero_scalar():
    trace = replay_derivation("qkd_core")
    out = final_diagram(trace)
    assert not out.inputs and not out.outputs
    value = evaluate(out)[0, 0]
    assert abs(value) > 1e-9
    # the witness is the single phase-free spider of value 2
    spiders = [v for v in out.vertices() if out.types[v].is_spider()]
    assert len(spiders) == 1
    assert out.phases[spiders[0]].is_zero()
    assert out.degree(spiders[0]) == 0


def test_expected_finals_frozen():
    for name in DERIVATION_NAMES:
        trace = replay_derivation(name)
        final = evaluate(final_diagram(trace))
        assert equal_up_to_scalar(final, expected_final(name)).equal


def test_verified_replay_evaluates_each_diagram_once(monkeypatch):
    from zxcalc import semantics  # derivations looks evaluate up there at call time

    calls = []

    def counting_evaluate(d, **kwargs):
        calls.append(d)
        return evaluate(d, **kwargs)

    monkeypatch.setattr(semantics, "evaluate", counting_evaluate)
    trace = replay_derivation("qkd_core")
    assert len(trace) == 17
    assert len(calls) == 18  # the start and each step; the last doubles as the final check


def test_stale_script_step_is_named(monkeypatch):
    from zxcalc.rewrite import derivations

    builder, _, expected = derivations._DERIVATIONS["ghz_plug0"]
    # B1 leaves the points 4 and 5 on separate wires, so D1 cannot pair them
    script = [derivations._b1(1, 0), derivations._d1(4, 5)]
    monkeypatch.setitem(derivations._DERIVATIONS, "stale", (builder, script, expected))
    message = r"^stale: step D1 at \[4, 5\] failed: D1 at \[4, 5\] no longer applies$"
    with pytest.raises(ReplayError, match=message):
        replay_derivation("stale")


def test_unknown_name_raises():
    with pytest.raises(ReplayError):
        replay_derivation("nope")


@pytest.mark.parametrize(
    "code",
    [
        "import zxcalc.rewrite.derivations",
        "import zxcalc.protocols; assert zxcalc.protocols.qkd_check_lemmas().passed",
    ],
    ids=["derivations_first", "protocols_first"],
)
def test_import_order(code):
    """derivations imports protocols at module level, and protocols imports
    derivations lazily: either may be imported first in a fresh process."""
    proc = run_python_process("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()


GHZ_PLUG0_GOLDEN = """\
step 0: start
  node 0 Z 0
  node 1 X 0
  node 2 B
  node 3 B
  edge 0 1
  edge 0 2
  edge 0 3
  outputs 2 3
step 1: B1 at [0, 1]
  scalar -1 0
  node 2 B
  node 3 B
  node 4 X 0
  node 5 X 0
  edge 2 4
  edge 3 5
  outputs 2 3
"""


def test_golden_trace_text():
    assert replay_derivation("ghz_plug0").render() == GHZ_PLUG0_GOLDEN
