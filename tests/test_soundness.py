import hashlib
import random

import pytest

from zxcalc.rewrite import (
    BACKWARD,
    FORWARD,
    RULE_NAMES,
    check_soundness,
    get_rule,
    random_diagram,
)
from zxcalc.rewrite.rules import HopfRule
from zxcalc.rewrite.soundness import embed_lhs


def test_random_diagram_valid_and_bounded():
    rng = random.Random(0)
    for _ in range(200):
        d = random_diagram(rng)
        d.validate()
        assert d.num_vertices() <= 8 + 4  # vertices plus boundary pins
        assert len(d.inputs) + len(d.outputs) <= 4


@pytest.mark.parametrize("name", RULE_NAMES)
def test_rule_soundness_quick(name):
    report = check_soundness(name, samples=50, seed=42)
    assert report.checks > 0, "soundness run must not be vacuous"
    assert report.failures == [], report.render()


@pytest.mark.parametrize("name", ["S1", "HOPF", "A"])
def test_rule_soundness_200_samples_seed_42(name):
    report = check_soundness(name, samples=200, seed=42)
    assert report.checks > 0
    assert report.failures == [], report.render()


def test_samples_must_be_positive():
    with pytest.raises(ValueError):
        check_soundness("S1", samples=0)


@pytest.mark.parametrize("name", ["S1", "B2", "C"])
def test_backward_soundness_quick(name):
    report = check_soundness(get_rule(name, BACKWARD), samples=50, seed=42)
    assert report.checks > 0
    assert report.failures == [], report.render()


def test_report_render_mentions_rule():
    report = check_soundness("HOPF", samples=20, seed=3)
    text = report.render()
    assert "HOPF" in text and "failures" in text


def test_scalar_rules_exactly_sound():
    """B1, K1, D1 and D2 delete closed scalar subdiagrams: the check
    compares entry by entry, so each deleted value must be in the scalar."""
    for name in ("B1", "K1", "D1", "D2"):
        report = check_soundness(get_rule(name), samples=50, seed=5)
        assert report.passed, report.render()
        assert report.vacuous < report.checks


def test_soundness_has_no_free_scalar(monkeypatch):
    """A rule that drops its factor fails the check."""
    rewrite = HopfRule._rewrite

    def forgetful(self, d, m):
        scalar = d.scalar
        rewrite(self, d, m)
        d.scalar = scalar

    monkeypatch.setattr(HopfRule, "_rewrite", forgetful)
    report = check_soundness("HOPF", samples=50, seed=0)
    assert report.checks > 0 and not report.passed
    assert len(report.failures) == report.checks - report.vacuous


def test_vacuous_and_skipped_counts():
    report = check_soundness("B2", samples=200, seed=0)
    assert (report.checks, report.vacuous, report.skipped) == (206, 31, 0)
    assert report.render().endswith("0 failures, 31 vacuous, 0 skipped")
    for name, direction in SOUNDNESS_PAIRS:  # a skip means lhs and holds disagree
        assert check_soundness(get_rule(name, direction), samples=200, seed=0).skipped == 0


# sha256 over check_soundness(rule, samples=50, seed=0).render() for all 16
# (rule, direction) pairs, joined by newlines: the renders count the checks,
# vacuous and skipped samples and carry each failure's .zxg, so a change to
# which random diagrams are drawn (the phase pool, Phase, embed_lhs) shows here
SOUNDNESS_PAIRS = [(name, FORWARD) for name in RULE_NAMES] + [
    ("S1", BACKWARD), ("B2", BACKWARD), ("C", BACKWARD)
]
SOUNDNESS_RENDERS_DIGEST = "663ea31c0805934e40348d8f52c002eebd566171a940ab325a71c5571aee8d7e"


def test_sampler_random_stream_pinned():
    assert len(SOUNDNESS_PAIRS) == 16
    text = "\n".join(
        check_soundness(get_rule(name, direction), samples=50, seed=0).render()
        for name, direction in SOUNDNESS_PAIRS
    )
    assert hashlib.sha256(text.encode()).hexdigest() == SOUNDNESS_RENDERS_DIGEST


@pytest.mark.parametrize("seed", range(5))
def test_samples_stay_within_eight_wires(seed):
    """check_soundness draws each sample from random_diagram and embed_lhs
    alone; their pins and embedded legs stay far below evaluate's cap."""
    for name, direction in SOUNDNESS_PAIRS:
        rng = random.Random(seed)
        for _ in range(200):
            d = random_diagram(rng, max_vertices=8, max_boundaries=4)
            embed_lhs(name, direction, d, rng)
            assert len(d.inputs) + len(d.outputs) <= 8, (name, direction, seed)
