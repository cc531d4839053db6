"""ZX-calculus engine: diagrams, exact semantics, sound rewriting, protocol checks.

The evaluation names (``evaluate`` and the rest of :mod:`zxcalc.semantics`)
are looked up on first use, so ``import zxcalc`` does not import numpy.
"""

from .phase import Phase
from .graph import (
    Diagram,
    DiagramError,
    InvariantError,
    ParseError,
    ResourceLimitError,
    VertexType,
    parse_zxg,
    serialize_zxg,
    to_dot,
)

_SEMANTICS = ("EqualityVerdict", "born_probability", "equal_up_to_scalar", "evaluate")

__all__ = [
    "Phase",
    "Diagram",
    "DiagramError",
    "InvariantError",
    "ParseError",
    "VertexType",
    "parse_zxg",
    "serialize_zxg",
    "to_dot",
    "EqualityVerdict",
    "ResourceLimitError",
    "born_probability",
    "equal_up_to_scalar",
    "evaluate",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here: each access reads zxcalc.semantics' current binding
    if name in _SEMANTICS:
        from . import semantics

        return getattr(semantics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SEMANTICS))
