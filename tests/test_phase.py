import cmath
import math
import random
from fractions import Fraction

import pytest

from zxcalc.phase import Phase, Scalar


def test_normalisation_into_two_pi():
    assert Phase(5, 2) == Phase(1, 2)
    assert Phase(-1, 2) == Phase(3, 2)
    assert Phase(2) == Phase(0)
    assert Phase(-7) == Phase(1)


def test_reduced_fraction_invariants():
    p = Phase(6, 4)
    assert (p.num, p.den) == (3, 2)
    assert math.gcd(p.num, p.den) == 1
    assert p.den >= 1
    assert 0 <= Fraction(p.num, p.den) < 2


def test_addition_exact_and_commutative():
    rng = random.Random(3)
    for _ in range(200):
        a = Phase(Fraction(rng.randint(-40, 40), rng.randint(1, 24)))
        b = Phase(Fraction(rng.randint(-40, 40), rng.randint(1, 24)))
        assert a + b == b + a
        assert (a + b).fraction == (a.fraction + b.fraction) % 2
    assert Phase(1, 2) + Phase(3, 2) == Phase(0)


def test_negation_wraps():
    assert -Phase(1, 3) == Phase(5, 3)
    assert -Phase(0) == Phase(0)
    assert -Phase(1) == Phase(1)


def test_predicates_and_radians():
    assert Phase(0).is_zero() and not Phase(0).is_pi()
    assert Phase(1).is_pi()
    assert Phase(1, 2).radians == pytest.approx(math.pi / 2)


def test_tokens_round_trip():
    for p in (Phase(0), Phase(1), Phase(1, 2), Phase(7, 4), Phase(5, 3)):
        assert Phase.from_token(p.token()) == p
    assert Phase.from_token("-1/2") == Phase(3, 2)


def test_str_uses_pi():
    assert str(Phase(0)) == "0"
    assert str(Phase(1)) == "π"
    assert str(Phase(1, 2)) == "π/2"
    assert str(Phase(3, 2)) == "3π/2"


def test_immutable():
    p = Phase(1, 2)
    with pytest.raises(AttributeError):
        p.num = 3


def test_scalar_value_and_exact_product():
    one = Scalar()
    assert complex(one) == 1
    a = Scalar(3, Phase(1, 2), (Phase(1, 3),))
    b = Scalar(-1, Phase(1, 2), (Phase(0), Phase(1, 4)))
    product = a * b
    assert product == Scalar(2, Phase(1), (Phase(0), Phase(1, 4), Phase(1, 3)))
    assert product == b * a  # nodes are kept sorted
    expected = 2 * -1 * 2 * (1 + cmath.exp(1j * math.pi / 4)) * (1 + cmath.exp(1j * math.pi / 3))
    assert abs(complex(product) - expected) < 1e-12
    assert a * one == a
    assert complex(Scalar(-2)) == 0.5  # even powers of sqrt(2) are exact


def test_scalar_immutable():
    s = Scalar(1)
    with pytest.raises(AttributeError):
        s.power = 2
