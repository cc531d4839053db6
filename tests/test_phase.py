import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


# ints on both sides of zero and past 2**64, where a shortcut through fixed
# width arithmetic would wrap
_INTS = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)


@given(_INTS, _INTS.filter(bool))
def test_normalisation_agrees_with_fraction(a, b):
    f = Fraction(a, b) % 2
    p = Phase(a, b)
    assert (p.num, p.den) == (f.numerator, f.denominator)
    assert type(p.num) is int and type(p.den) is int


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Phase(1, 0)
    with pytest.raises(ZeroDivisionError):
        Phase(np.int64(1), 0)


def test_other_argument_types_keep_their_results():
    cases = {
        (True,): (1, 1),
        (True, True): (1, 1),
        (False,): (0, 1),
        (Fraction(5, 2),): (1, 2),
        (Fraction(7, 3), 2): (7, 6),
        (1, -2): (3, 2),
        (-3, -4): (3, 4),
        (np.int64(3), np.int64(2)): (3, 2),
        (np.int64(5),): (1, 1),
        (3, np.int32(4)): (3, 4),
    }
    for args, (num, den) in cases.items():
        p = Phase(*args)
        assert (p.num, p.den) == (num, den), args
    # numpy ints become plain ints, so phase arithmetic cannot overflow
    assert type(Phase(np.int64(3), np.int64(2)).num) is int
    for args in ((1.5,), (1, 2.0), ("1",), (np.True_,)):
        with pytest.raises(TypeError):
            Phase(*args)


def test_numpy_int_phases_add_without_overflow():
    half = Phase(np.int64(1), np.int64(2**40))
    total = half + half
    assert (total.num, total.den) == (1, 2**39)
    assert type(total.num) is int and type(total.den) is int
    mixed = Phase(np.int64(1), Fraction(2**40))
    assert type(mixed.num) is int and mixed == half
