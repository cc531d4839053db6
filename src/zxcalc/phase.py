"""Exact spider phases, rational multiples of pi normalised into [0, 2*pi),
and the exact nonzero scalars that rewriting multiplies into a diagram."""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


class Phase:
    """An angle ``(num/den)*pi`` stored as a reduced fraction with ``0 <= num/den < 2``.

    Addition and negation are exact and wrap around modulo 2*pi, so phase
    arithmetic never accumulates floating-point error.  The float value only
    appears when a diagram is evaluated.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int | Fraction = 0, den: int = 1):
        if type(num) is not int or type(den) is not int or den <= 0:  # not the common case
            from fractions import Fraction  # imported here: the int path never needs it

            # numpy ints become plain ints, whose arithmetic cannot overflow
            num = num if isinstance(num, Fraction) else operator.index(num)
            den = den if isinstance(den, Fraction) else operator.index(den)
            num, den = Fraction(num, den).as_integer_ratio()
        num %= 2 * den
        g = math.gcd(num, den)
        num, den = num // g, den // g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __reduce__(self):  # pickle through __init__: its slots cannot be set
        return Phase, (self.num, self.den)

    def __copy__(self) -> "Phase":
        return self

    def __deepcopy__(self, memo) -> "Phase":
        return self

    @classmethod
    def zero(cls) -> "Phase":
        return cls(0)

    @classmethod
    def pi(cls) -> "Phase":
        return cls(1)

    @property
    def fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def is_pi(self) -> bool:
        return self.num == 1 and self.den == 1

    @property
    def radians(self) -> float:
        return math.pi * self.num / self.den

    def __add__(self, other: "Phase") -> "Phase":
        if not other.num:  # adding zero, as most spider fusions do
            return self
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "Phase":
        return Phase(-self.num, self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Phase) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Phase({self.num}, {self.den})"

    def __str__(self) -> str:
        """Human-readable form in units of pi: '0', 'π', 'π/2', '3π/2', ..."""
        if self.num == 0:
            return "0"
        num = "π" if self.num == 1 else f"{self.num}π"
        return num if self.den == 1 else f"{num}/{self.den}"

    def token(self) -> str:
        """The .zxg file token: an integer or 'num/den', in units of pi."""
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    @classmethod
    def from_token(cls, text: str) -> "Phase":
        """Parse a .zxg phase token ('1', '-1/2', '3/4', ...)."""
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return cls(int(num), int(den))
        return cls(int(text))


@dataclass(frozen=True)
class Scalar:
    """The number ``sqrt(2)**power * e^{i*phase} * prod(1 + e^{i*a} for a in nodes)``.

    ``nodes`` is sorted and no node is pi, so the value is never zero.
    Products are exact; the float value appears only in ``complex()``.
    """

    power: int = 0
    phase: Phase = Phase.zero()
    nodes: tuple[Phase, ...] = ()

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not (other.power or other.phase.num or other.nodes):  # other is 1, as is common
            return self
        nodes = tuple(sorted(self.nodes + other.nodes, key=lambda a: a.fraction))
        return Scalar(self.power + other.power, self.phase + other.phase, nodes)

    def __complex__(self) -> complex:
        value = 2 ** (self.power / 2) * cmath.exp(1j * self.phase.radians)
        for a in self.nodes:
            value *= 1 + cmath.exp(1j * a.radians)
        return value
