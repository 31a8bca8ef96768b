"""Constructors for the three commuting-operator families.

Three potentials are covered:

* cubic:        V = a3 x^3 + a2 x^2 + a1 x + a0
* quartic:      V = a4 x^4 + ... + a0, tied by a3^3 - 4 a2 a3 a4 + 8 a1 a4^2 = 0
* exponential:  V = a1 e^x + a0 (with an optional +(g+eps)^2/4 shift)

Each family has a fourth-order operator L4 = L2^2 + W, W of order zero, that
commutes with an operator of order 4g+2, an eigenvalue characteristic
polynomial chi(z), and an explicit multiplier p(x) sending kernel functions of
L2 to eigenfunctions of L4.  The closed forms exist for cubic g in {2, 4},
quartic g in {1, 2}, and every g >= 1 in the exponential family.  A cubic or
quartic p is a list of z-coefficients, evaluated by :func:`rings.multipoly.horner`.

Both operators are built in closed form, with no operator composition: V is
one kernel sum of a_i times a monomial, and the Leibniz step
D^2 V = V D^2 + 2V' D + V'' gives

    L4 = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W),

read off L2's V (:func:`_l4_from`), so a caller holding L2 builds L4 from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConstraintError, NotCoveredError
from .operators import DiffOp
from .rings import CharPoly, PolyRing
from .rings.multipoly import DERIVATION_VAR, EXP_HALF_VAR, _as_fraction, horner

CUBIC = "cubic"
QUARTIC = "quartic"
EXPONENTIAL = "exponential"

_PARAM_NAMES = ("a0", "a1", "a2", "a3", "a4")
_PARAM_COUNT = {CUBIC: 4, QUARTIC: 5, EXPONENTIAL: 2}  # the family uses a0 .. a(count-1)


@dataclass(frozen=True)
class FamilySpec:
    """One concrete or symbolic member of an operator family.

    ``alphas`` is None for fully symbolic parameters, otherwise a tuple of
    exact rationals (a0, a1, a2, a3, a4); trailing entries may be omitted.
    A parameter the family does not use (a4 of the cubic, a2 .. a4 of the
    exponential) must be zero, and more than five values raise
    :class:`ConstraintError`.  ``eps`` selects the branch of the exponential
    family and must be 0 elsewhere (:class:`ConstraintError` otherwise).
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
        if self.eps and self.family != EXPONENTIAL:
            raise ConstraintError(f"eps = 1 is an exponential branch, not a {self.family} one")
        if self.alphas is not None:
            if len(self.alphas) > len(_PARAM_NAMES):
                raise ConstraintError(f"at most 5 parameters a0 .. a4, got {len(self.alphas)}")
            alphas = tuple(_as_fraction(a) for a in self.alphas)
            alphas = alphas + (Fraction(0),) * (5 - len(alphas))
            object.__setattr__(self, "alphas", alphas)
            count = _PARAM_COUNT[self.family]
            unused = [f"{n} = {a}" for n, a in zip(_PARAM_NAMES[count:], alphas[count:]) if a]
            if unused:
                raise ConstraintError(
                    f"the {self.family} family uses a0 .. a{count - 1} only, "
                    f"got {', '.join(unused)}"
                )
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
    """The constant ring of chi(z): :func:`coefficient_ring` without x and t."""
    ring = coefficient_ring(spec)
    params = tuple(v for v in ring.variables if v not in (DERIVATION_VAR, EXP_HALF_VAR))
    return PolyRing(params, laurent=ring.laurent & set(params))


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

    V is one kernel sum of a_i times a monomial: a_i x^i, or a1 t^2 and a0
    in the exponential family.  ``shifted`` adds (g+eps)^2/4 and is
    meaningful only for the exponential family, whose eigenfunction
    statements run through the shifted kernel (:func:`_shifted`).
    """
    ring = coefficient_ring(spec)
    if spec.family == EXPONENTIAL:
        terms = [(1, _alpha(spec, ring, 1), ring.var("t", 2)),
                 (1, _alpha(spec, ring, 0), ring.one)]
    else:
        top = 4 if spec.family == QUARTIC else 3
        terms = [(1, _alpha(spec, ring, i), ring.var("x", i)) for i in range(top + 1)]
    l2 = DiffOp(ring, [ring.sum_products(terms), ring.zero, ring.one])
    return _shifted(spec, l2) if shifted else l2


def _shifted(spec: FamilySpec, l2: DiffOp) -> DiffOp:
    """The exponential family's L2 + (g+eps)^2/4; ``l2`` itself otherwise."""
    if spec.family != EXPONENTIAL:
        return l2
    return l2 + DiffOp(l2.ring, [l2.ring.const(Fraction((spec.g + spec.eps) ** 2, 4))])


def make_L4(spec: FamilySpec) -> DiffOp:
    """L4 = L2^2 + W = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W), L2 = D^2 + V.

    The closed form rests on the Leibniz step D^2 V = V D^2 + 2V' D + V'';
    no composition runs (:func:`_l4_from`).
    """
    return _l4_from(spec, make_schrodinger(spec))


def _l4_from(spec: FamilySpec, l2: DiffOp) -> DiffOp:
    """L4 = (D^2 + V)^2 + W from the unshifted L2 = D^2 + V, with no composition.

    The Leibniz step D^2 V = V D^2 + 2V' D + V'' gives

        L4 = D^4 + 2V D^2 + 2V' D + (V'' + V^2 + W),

    whose order-0 coefficient is one kernel sum.  W is a3 g(g+1) x (cubic),
    2 g(g+1) x (a3 + 2 a4 x) (quartic) or a1 g(g+1) e^x (exponential).
    :func:`centralizer._schrodinger_square` is exactly the inverse: it reads
    V and W back off these coefficients.
    """
    ring = l2.ring
    v = l2.coeff(0)
    dv = v.derive()
    gg1 = spec.g * (spec.g + 1)
    if spec.family == EXPONENTIAL:
        w = [(gg1, _alpha(spec, ring, 1), ring.var("t", 2))]
    elif spec.family == CUBIC:
        w = [(gg1, _alpha(spec, ring, 3), ring.var("x"))]
    else:
        w = [(2 * gg1, _alpha(spec, ring, 3), ring.var("x")),
             (4 * gg1, _alpha(spec, ring, 4), ring.var("x", 2))]
    c0 = ring.sum_products([(1, v, v), (1, dv.derive(), ring.one), *w])
    return DiffOp(ring, [c0, dv * 2, v * 2, ring.zero, ring.one])


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

    Horner on :func:`_multiplier_z_coeffs` from ``z * 0``, for z a QuotientExt
    generator, a base-ring element or a rational; the exponential p ignores z.
    """
    if spec.family == EXPONENTIAL:
        ring = coefficient_ring(spec)
        k = spec.g if spec.eps == 0 else -(spec.g + 1)
        return ring.var("t", k)
    return horner(_multiplier_z_coeffs(spec), z, z * 0)


def _multiplier_z_coeffs(spec: FamilySpec) -> list:
    """[p_0, p_1, ...] with p = sum_i p_i(x) z^i over :func:`coefficient_ring`,
    for the cubic family at g in {2, 4} and the quartic at g in {1, 2}."""
    ring = coefficient_ring(spec)
    x = ring.var("x")

    def a(i):
        return _alpha(spec, ring, i)

    if spec.family == CUBIC:
        if spec.g == 2:
            return [6 * a(3) * x + 4 * a(2), ring.one]
        if spec.g == 4:
            return [
                280 * a(3) ** 2 * x ** 2 + 320 * a(2) * a(3) * x
                + 64 * a(2) ** 2 + 168 * a(1) * a(3),
                20 * a(3) * x + 20 * a(2),
                ring.one,
            ]
        raise NotCoveredError(f"cubic family has no multiplier for g={spec.g}")
    if spec.g == 1:
        return [4 * a(4) * x + a(3)]
    if spec.g == 2:
        return [24 * a(4) ** 2 * x ** 2 + 12 * a(3) * a(4) * x - 3 * a(3) ** 2 + 16 * a(2) * a(4),
                a(4)]
    raise NotCoveredError(f"quartic family has no multiplier for g={spec.g}")
