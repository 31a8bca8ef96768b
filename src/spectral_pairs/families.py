"""Constructors for the three commuting-operator families.

Three potentials are covered:

* cubic:        V = a3 x^3 + a2 x^2 + a1 x + a0
* quartic:      V = a4 x^4 + ... + a0, tied by a3^3 - 4 a2 a3 a4 + 8 a1 a4^2 = 0
* exponential:  V = a1 e^x + a0 (with an optional +(g+eps)^2/4 shift)

Each family has a fourth-order operator L4 = L2^2 + (lower-order term) that
commutes with an operator of order 4g+2, an eigenvalue characteristic
polynomial chi(z), and an explicit multiplier p(x) sending kernel functions of
L2 to eigenfunctions of L4.  The closed forms exist for cubic g in {2, 4},
quartic g in {1, 2}, and every g >= 1 in the exponential family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintError, NotCoveredError
from .operators import DiffOp
from .rings import CharPoly, PolyRing
from .rings.multipoly import _as_fraction

CUBIC = "cubic"
QUARTIC = "quartic"
EXPONENTIAL = "exponential"

_PARAM_NAMES = ("a0", "a1", "a2", "a3", "a4")


@dataclass(frozen=True)
class FamilySpec:
    """One concrete or symbolic member of an operator family.

    ``alphas`` is None for fully symbolic parameters, otherwise a tuple of
    exact rationals (a0, a1, a2, a3, a4); trailing entries may be omitted.
    ``eps`` selects the branch of the exponential family and is ignored
    elsewhere.
    """

    family: str
    g: int
    eps: int = 0
    alphas: tuple | None = None

    def __post_init__(self):
        if self.family not in (CUBIC, QUARTIC, EXPONENTIAL):
            raise ValueError(f"unknown family {self.family!r}")
        if self.g < 1:
            raise ValueError("g must be a positive integer")
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if self.alphas is not None:
            alphas = tuple(_as_fraction(a) for a in self.alphas)
            alphas = alphas + (Fraction(0),) * (5 - len(alphas))
            object.__setattr__(self, "alphas", alphas)
            if self.family == QUARTIC:
                if alphas[4] == 0:
                    raise ConstraintError("quartic family requires a4 != 0")
                if quartic_constraint_value(*alphas[1:5]) != 0:
                    raise ConstraintError(
                        "a3^3 - 4 a2 a3 a4 + 8 a1 a4^2 must vanish"
                    )

    @property
    def symbolic(self) -> bool:
        return self.alphas is None

    def identity_id(self) -> str:
        tag = f"{self.family}-g{self.g}"
        if self.family == EXPONENTIAL:
            tag += f"-eps{self.eps}"
        return tag

    def params_dict(self) -> dict:
        if self.alphas is None:
            return {}
        return {name: str(a) for name, a in zip(_PARAM_NAMES, self.alphas)}


def quartic_constraint_value(a1, a2, a3, a4) -> Fraction:
    a1, a2, a3, a4 = map(_as_fraction, (a1, a2, a3, a4))
    return a3 ** 3 - 4 * a2 * a3 * a4 + 8 * a1 * a4 ** 2


def solve_quartic_constraint(a2, a3, a4) -> Fraction:
    """The unique a1 making the quartic constraint vanish, for a4 != 0."""
    a2, a3, a4 = map(_as_fraction, (a2, a3, a4))
    if a4 == 0:
        raise ConstraintError("a4 must be nonzero")
    return (4 * a2 * a3 * a4 - a3 ** 3) / (8 * a4 ** 2)


# -- coefficient rings ---------------------------------------------------------


def coefficient_ring(spec: FamilySpec):
    """The differential ring housing the family's operator coefficients."""
    if spec.family == EXPONENTIAL:
        # t = exp(x/2), so e^x = t^2 (see rings.multipoly)
        base_vars = () if not spec.symbolic else ("a0", "a1")
        return PolyRing(("t", *base_vars), laurent=("t",))
    if not spec.symbolic:
        return PolyRing(("x",))
    if spec.family == CUBIC:
        return PolyRing(("x", "a0", "a1", "a2", "a3"))
    # quartic symbolic: a1 is eliminated, a4 is invertible
    return PolyRing(("x", "a0", "a2", "a3", "a4"), laurent=("a4",))


def parameter_ring(spec: FamilySpec):
    """The x-free constant ring in which chi(z) coefficients live."""
    if spec.family == EXPONENTIAL:
        return PolyRing(() if not spec.symbolic else ("a0", "a1"))
    if not spec.symbolic:
        return PolyRing(())
    if spec.family == CUBIC:
        return PolyRing(("a0", "a1", "a2", "a3"))
    return PolyRing(("a0", "a2", "a3", "a4"), laurent=("a4",))


def _alpha(spec: FamilySpec, ring: PolyRing, i: int):
    """a_i as an element of ``ring`` (symbolic variable or specialized value)."""
    name = _PARAM_NAMES[i]
    if not spec.symbolic:
        return ring.const(spec.alphas[i])
    if spec.family == QUARTIC and i == 1:
        # eliminated: a1 = (4 a2 a3 a4 - a3^3) / (8 a4^2)
        a2, a3 = ring.var("a2"), ring.var("a3")
        a4 = ring.var("a4")
        a4_inv2 = ring.var("a4", -2)
        return (4 * a2 * a3 * a4 - a3 ** 3) * a4_inv2 * Fraction(1, 8)
    return ring.var(name)


# -- operators -----------------------------------------------------------------


def make_schrodinger(spec: FamilySpec, shifted: bool = False) -> DiffOp:
    """The monic order-2 operator d^2 + V(x), optionally energy-shifted.

    ``shifted`` adds (g+eps)^2/4 and is meaningful only for the exponential
    family, whose eigenfunction statements run through the shifted kernel.
    """
    ring = coefficient_ring(spec)
    if spec.family == EXPONENTIAL:
        v = _alpha(spec, ring, 1) * ring.var("t", 2) + _alpha(spec, ring, 0)
        if shifted:
            v = v + ring.const(Fraction((spec.g + spec.eps) ** 2, 4))
        return DiffOp(ring, [v, ring.zero, ring.one])
    top = 4 if spec.family == QUARTIC else 3
    x = ring.var("x")
    v = ring.zero
    for i in range(top + 1):
        v = v + _alpha(spec, ring, i) * x ** i
    return DiffOp(ring, [v, ring.zero, ring.one])


def make_L4(spec: FamilySpec) -> DiffOp:
    """L2^2 plus the family's order-zero correction term."""
    ring = coefficient_ring(spec)
    l2 = make_schrodinger(spec, shifted=False)
    gg1 = spec.g * (spec.g + 1)
    if spec.family == EXPONENTIAL:
        extra = _alpha(spec, ring, 1) * gg1 * ring.var("t", 2)
    elif spec.family == CUBIC:
        extra = _alpha(spec, ring, 3) * ring.var("x") * gg1
    else:
        x = ring.var("x")
        a3 = _alpha(spec, ring, 3)
        a4 = _alpha(spec, ring, 4)
        extra = 2 * gg1 * x * (a3 + 2 * a4 * x)
    return l2 * l2 + DiffOp(ring, [extra])


# -- eigenvalue data -------------------------------------------------------------


def char_poly_z(spec: FamilySpec) -> CharPoly:
    """Monic chi(z) whose roots are the known L4 eigenvalues."""
    ring = parameter_ring(spec)

    def a(i):
        return _alpha(spec, ring, i)

    if spec.family == CUBIC:
        if spec.g == 2:
            return CharPoly(ring, [12 * a(1) * a(3), 4 * a(2), ring.one])
        if spec.g == 4:
            return CharPoly(
                ring,
                [
                    320 * a(3) * (7 * a(0) * a(3) + 2 * a(1) * a(2)),
                    16 * (4 * a(2) ** 2 + 13 * a(1) * a(3)),
                    20 * a(2),
                    ring.one,
                ],
            )
        raise NotCoveredError(f"cubic family has no closed form for g={spec.g}")
    if spec.family == QUARTIC:
        a4_inv = (
            ring.var("a4", -1) if spec.symbolic else ring.const(1 / spec.alphas[4])
        )
        if spec.g == 1:
            # z = a3^2/a4 - 4 a2, as the root of a monic linear chi
            root = a(3) ** 2 * a4_inv - 4 * a(2)
            return CharPoly(ring, [-root, ring.one])
        if spec.g == 2:
            return CharPoly(
                ring,
                [
                    24 * a(1) * a(3) + 192 * a(0) * a(4),
                    -(3 * a(3) ** 2 * a4_inv - 16 * a(2)),
                    ring.one,
                ],
            )
        raise NotCoveredError(f"quartic family has no closed form for g={spec.g}")
    # exponential: z = -(g+eps)^2 (4 a0 + (g+eps)^2)/4, every g >= 1
    m = spec.g + spec.eps
    root = -Fraction(m * m, 4) * (4 * a(0) + m * m)
    return CharPoly(ring, [-root, ring.one])


def multiplier_p(spec: FamilySpec, z):
    """The eigenfunction multiplier p(x), over the ring where ``z`` lives.

    ``z`` must support arithmetic with lifted parameter-ring elements: a
    QuotientExt generator, a base-ring element (deg chi = 1), or a rational
    specialization inside a quotient field.
    """
    if spec.family == EXPONENTIAL:
        ring = coefficient_ring(spec)
        k = spec.g if spec.eps == 0 else -(spec.g + 1)
        return ring.var("t", k)

    # target ring: the ring z lives in; parameters are embedded through it
    def lift(elem):
        return z * 0 + elem

    ring = coefficient_ring(spec)
    x = ring.var("x")

    def a(i):
        return _alpha(spec, ring, i)

    if spec.family == CUBIC:
        if spec.g == 2:
            return lift(6 * a(3) * x) + z + lift(4 * a(2))
        if spec.g == 4:
            return (
                lift(280 * a(3) ** 2 * x ** 2)
                + (z + lift(16 * a(2))) * lift(20 * a(3) * x)
                + z * z
                + z * lift(20 * a(2))
                + lift(64 * a(2) ** 2 + 168 * a(1) * a(3))
            )
        raise NotCoveredError(f"cubic family has no multiplier for g={spec.g}")
    if spec.g == 1:
        return lift(4 * a(4) * x + a(3))
    if spec.g == 2:
        return (
            lift(24 * a(4) ** 2 * x ** 2 + 12 * a(3) * a(4) * x - 3 * a(3) ** 2)
            + (z + lift(16 * a(2))) * lift(a(4))
        )
    raise NotCoveredError(f"quartic family has no multiplier for g={spec.g}")
