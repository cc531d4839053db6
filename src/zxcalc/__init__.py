"""ZX-calculus engine: diagrams, exact semantics, sound rewriting, protocol checks."""

from .phase import Phase
from .graph import (
    Diagram,
    DiagramError,
    InvariantError,
    ParseError,
    VertexType,
    parse_zxg,
    serialize_zxg,
    to_dot,
)
from .semantics import (
    EqualityVerdict,
    ResourceLimitError,
    born_probability,
    equal_up_to_scalar,
    evaluate,
)

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
