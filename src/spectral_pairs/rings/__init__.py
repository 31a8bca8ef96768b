"""Exact differential coefficient rings."""

from .multipoly import DERIVATION_VAR, MultiPoly, PolyRing
from .quotient import (
    CharPoly,
    QuotientExt,
    QuotientRing,
    rational_roots,
    reduce_mod_char,
)
from .fraction_field import (
    FractionElem,
    FractionFieldRing,
    QuotientField,
    RationalField,
    UniPoly,
)

# The exponential family's ring is a PolyRing with the Laurent variable t.
# The old name stays because the benchmark's tracer in perfbench/tracing.py
# looks up TwistedLaurent.__dict__["__mul__"].
TwistedLaurent = MultiPoly

__all__ = [
    "DERIVATION_VAR",
    "MultiPoly",
    "PolyRing",
    "CharPoly",
    "QuotientExt",
    "QuotientRing",
    "rational_roots",
    "reduce_mod_char",
    "TwistedLaurent",
    "FractionElem",
    "FractionFieldRing",
    "QuotientField",
    "RationalField",
    "UniPoly",
]
