"""Exact verification of the eigenfunction and commutation identities.

Every check reduces an analytic statement to ring algebra: an order-4
operator annihilating the two-dimensional kernel of a monic order-2 operator
must right-divide by it with zero remainder.  A nonzero remainder is reported
with its witness intact, never corrected.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .centralizer import find_commuting_operator
from .errors import DegenerateSampleError, NotCoveredError, SpectralPairsError
from .families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    coefficient_ring,
    make_L4,
    make_schrodinger,
    multiplier_p,
    solve_quartic_constraint,
)
from .operators import DiffOp
from .rings import (
    CharPoly,
    PolyRing,
    QuotientField,
    QuotientRing,
    RationalField,
    UniPoly,
    rational_roots,
)
from .rings.fraction_field import FractionElem, FractionFieldRing

RESAMPLE_BUDGET = 50
DEFAULT_SEED = 20140441


@dataclass
class VerificationReport:
    """Outcome of one exact identity check."""

    identity_id: str
    mode: str  # symbolic | specialized
    remainder_is_zero: bool
    params: dict = field(default_factory=dict)
    witness: DiffOp | None = None
    remainder: DiffOp | None = None
    elapsed_s: float = 0.0

    @property
    def witness_order(self):
        if self.witness is None or self.witness.is_zero():
            return None
        return int(self.witness.order)


def _lift_op(op: DiffOp, qring: QuotientRing) -> DiffOp:
    return DiffOp(qring, [qring.from_base(c) for c in op.coeffs])


def verify_eigen_identity(spec: FamilySpec) -> VerificationReport:
    """Check L4 (p phi) = z (p phi) for every phi in ker L2, exactly.

    Builds N = L4 p - z p as an operator (p and z acting by multiplication)
    and right-divides by L2; the identity holds iff the remainder vanishes.
    For deg chi >= 2 the computation runs in Base[z]/(chi), treating z as a
    formal root without choosing one.
    """
    t0 = time.perf_counter()
    l2 = make_schrodinger(spec, shifted=(spec.family == EXPONENTIAL))
    l4 = make_L4(spec)
    chi = char_poly_z(spec)
    if chi.degree == 1:
        z = (-chi.coeffs[0]).map_to(coefficient_ring(spec))
    else:
        ring = QuotientRing(coefficient_ring(spec), chi)
        l2 = _lift_op(l2, ring)
        l4 = _lift_op(l4, ring)
        z = ring.gen
    p = multiplier_p(spec, z)
    n = l4 * DiffOp.mult(p) - DiffOp.mult(z * p)
    q, r = n.right_divmod(l2)
    if q * l2 + r != n:  # reconstruction re-check after every division
        raise SpectralPairsError("right division failed its reconstruction check")
    return VerificationReport(
        identity_id=f"eigen-{spec.identity_id()}",
        mode="specialized" if not spec.symbolic else "symbolic",
        remainder_is_zero=r.is_zero(),
        params=spec.params_dict(),
        witness=q,
        remainder=None if r.is_zero() else r,
        elapsed_s=time.perf_counter() - t0,
    )


def verify_commutation(a: DiffOp, b: DiffOp, identity_id="commutation") -> VerificationReport:
    t0 = time.perf_counter()
    c = a.commutator(b)
    return VerificationReport(
        identity_id=identity_id,
        mode="specialized",
        remainder_is_zero=c.is_zero(),
        remainder=None if c.is_zero() else c,
        elapsed_s=time.perf_counter() - t0,
    )


# -- conjugated commutators divisible by L2 ------------------------------------


def _sf(chi: CharPoly) -> bool:
    """Whether chi, of degree <= 3 over Q, is squarefree.

    A repeated root of chi is a root of gcd(chi, chi'), which is linear over
    Q or, for chi = (z - r)^3, the square of a linear factor: so it is
    rational, and chi is squarefree iff its rational roots, listed with
    multiplicity, repeat none.
    """
    roots = rational_roots(chi)
    return len(roots) == len(set(roots))


def _deflate_rational_roots(coeffs, roots):
    """Divide out (z - r) for each rational root (with multiplicity)."""
    f = UniPoly(RationalField(), coeffs, var="z")
    for r in roots:
        lin = UniPoly(RationalField(), [-r, Fraction(1)], var="z")
        f, rem = f.divmod(lin)
        if not rem.is_zero():
            raise SpectralPairsError(f"rational root {r} does not divide chi")
    return list(f.coeffs)


def _multipoly_to_unipoly(poly, field, var="x"):
    """MultiPoly in x (rational coefficients) -> UniPoly over ``field``."""
    out = [field.zero] * (poly.degree_in(var) + 1) if not poly.is_zero() else []
    for e, c in poly.terms.items():
        out[e[0]] = out[e[0]] + field.from_rational(c)
    return UniPoly(field, out, var=var)


def _quotient_coords_to_unipoly(elem, qfield, var="x"):
    """QuotientExt with Q[x] coordinates -> UniPoly over the quotient field."""
    deg = max((c.degree_in(var) for c in elem.coords), default=-1)
    zero = qfield.zero
    out = [zero] * (deg + 1)
    for zi, coord in enumerate(elem.coords):
        for e, c in coord.terms.items():
            mono = [Fraction(0)] * (zi + 1)
            mono[zi] = c
            out[e[0]] = out[e[0]] + qfield.qring.from_z_coeffs(mono)
    return UniPoly(qfield, out, var=var)


def _branches(chi: CharPoly):
    """(field, z-element) pairs covering every root class of chi over Q."""
    coeffs = chi.rational_coeffs()
    roots = rational_roots(chi)
    out = []
    qq = RationalField()
    for r in sorted(set(roots)):
        out.append((qq, r))
    cofactor = _deflate_rational_roots(coeffs, roots)
    if len(cofactor) > 1:
        # no rational roots left: irreducible over Q for degree <= 3
        lead = cofactor[-1]
        monic = [c / lead for c in cofactor]
        qchi = CharPoly(PolyRing(()), [Fraction(c) for c in monic])
        qfield = QuotientField(QuotientRing(PolyRing(()), qchi))
        out.append((qfield, qfield.gen))
    return out


def _cleared_commutator(l: DiffOp, l2: DiffOp, p) -> DiffOp:
    """p^3 [p^-1 L p, L2] as an operator over the polynomial ring of p.

    With N = L p and L2 = D^2 + V, the rule L2 p^-1 = p^-1 L2 + (p^-1)'' +
    2 (p^-1)' D gives

        p^3 [p^-1 N, L2] = p^2 [N, L2] - (2 p'^2 - p p'') N + 2 p p' (D N),

    whose coefficients are polynomials again.
    """
    if not l2.coeff(1).is_zero():
        raise SpectralPairsError("the cleared commutator needs L2 = D^2 + V")
    dp = p.derive()
    n = l * DiffOp.mult(p)
    return (
        n.commutator(l2).scale(p * p)
        - n.scale(2 * dp * dp - p * dp.derive())
        + (DiffOp.d(n.ring) * n).scale(2 * p * dp)
    )


def _over_p_cubed(num: UniPoly, p: UniPoly) -> FractionElem:
    """num / p^3 in lowest terms over a field, as FractionElem reduces it.

    Whole factors of p are divided out first, by exact division while the
    remainder is zero, leaving num / p^k with p not dividing num.  Then
    gcd(num, p) = gcd(p, num mod p) = 1 (always when p is irreducible) gives
    gcd(num, p^k) = 1, and the fraction is already reduced; only otherwise
    does the full gcd reduction run.
    """
    k = 3
    while k and p.degree > 0 and not num.is_zero():
        q, rem = num.divmod(p)
        if not rem.is_zero():
            break
        num, k = q, k - 1
    den = p ** k
    # den has positive degree only if the loop stopped at rem = num mod p != 0
    if num.is_zero() or (den.degree > 0 and p.gcd(rem).degree > 0):
        return FractionElem(num, den)
    inv = num.field.inv(den.lead())
    scaled = UniPoly(num.field, [c * inv for c in num.coeffs], num.var)
    return FractionElem(scaled, den.monic(), _normalized=True)


def verify_corollary(
    spec: FamilySpec, which: str = "l4", partner: DiffOp | None = None
) -> VerificationReport:
    """Check [p^-1 L p, L2] = B L2 at specialized rational parameters.

    ``which`` selects L = L4 ("l4") or the computed commuting partner of
    order 4g+2 ("l4g2"); for the latter a precomputed ``partner`` may be
    passed to skip the centralizer search.  Every rational root of chi and
    every irreducible non-rational factor (as a quotient field) is checked;
    the report aggregates them and keeps the first witness B.

    Each branch runs division-free over K[x], K the rationals or
    Q[z]/(factor): with N = L p it right-divides the cleared commutator

        C3 = p^2 [N, L2] - (2 p'^2 - p p'') N + 2 p p' (D N) = p^3 [p^-1 L p, L2]

    by the monic L2, C3 = B~ L2 + R~, and re-checks B~ L2 + R~ = C3.  If
    [p^-1 L p, L2] = B L2 + R over Frac(K[x]), then C3 = (p^3 B) L2 + p^3 R
    with order(p^3 R) < 2; right division by a monic operator is unique, so
    B~ = p^3 B and R~ = p^3 R.  The verdict is R~ = 0, and the reported
    witness and remainder are p^-3 B~ and p^-3 R~ over Frac(K[x]).
    """
    if spec.symbolic:
        raise NotCoveredError("conjugation checks run at specialized parameters only")
    if spec.family != CUBIC or spec.g not in (2, 4):
        raise NotCoveredError("conjugation checks cover the cubic family, g in {2, 4}")
    t0 = time.perf_counter()
    l2 = make_schrodinger(spec)
    if which == "l4":
        l = make_L4(spec)
    elif which == "l4g2":
        l = partner if partner is not None else find_commuting_operator(
            make_L4(spec), 4 * spec.g + 2
        )
    else:
        raise ValueError(f"unknown target {which!r}")
    chi = char_poly_z(spec)
    all_zero = True
    witness = None
    first_remainder = None
    for fld, z in _branches(chi):
        if isinstance(fld, RationalField):
            l_k, l2_k = l, l2
            p = multiplier_p(spec, z)  # MultiPoly in x

            def to_unipoly(coeff):
                return _multipoly_to_unipoly(coeff, fld)

        else:
            # z the generator of Q[z]/(factor), coordinates in Q[x]
            qext = QuotientRing(PolyRing(("x",)), fld.qring.chi)
            l_k, l2_k = _lift_op(l, qext), _lift_op(l2, qext)
            p = multiplier_p(spec, qext.gen)

            def to_unipoly(coeff):
                return _quotient_coords_to_unipoly(coeff, fld)

        if p.is_zero():
            # degenerate root: p cannot conjugate; skip unless nothing is left
            continue
        c3 = _cleared_commutator(l_k, l2_k, p)
        b, r = c3.right_divmod(l2_k)
        if b * l2_k + r != c3:
            raise SpectralPairsError("right division failed its reconstruction check")
        frac_ring = FractionFieldRing(fld)

        def uncleared(op):
            p1 = to_unipoly(p)
            return DiffOp(frac_ring, [_over_p_cubed(to_unipoly(c), p1) for c in op.coeffs])

        if not r.is_zero():
            all_zero = False
            if first_remainder is None:
                first_remainder = uncleared(r)
        if witness is None:
            witness = uncleared(b)
    if witness is None:
        raise DegenerateSampleError("multiplier p vanished at every root of chi")
    return VerificationReport(
        identity_id=f"corollary-{which}-{spec.identity_id()}",
        mode="specialized",
        remainder_is_zero=all_zero,
        params=spec.params_dict(),
        witness=witness,
        remainder=first_remainder,
        elapsed_s=time.perf_counter() - t0,
    )


# -- seeded sampling -------------------------------------------------------------


def _random_rational(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def sample_spec(
    family: str,
    g: int,
    rng: random.Random,
    eps: int = 0,
    require_squarefree_chi: bool = False,
) -> FamilySpec:
    """A random specialized member of the family, resampled when degenerate.

    Degenerate means: violated preconditions (a4 = 0, zero multiplier data) or
    a non-squarefree chi when a fraction-field stage will follow.  The budget
    is fixed; genericity fails only on a measure-zero set.
    """
    for _ in range(RESAMPLE_BUDGET):
        if family == QUARTIC:
            a2, a3 = _random_rational(rng), _random_rational(rng)
            a4 = _random_rational(rng)
            if a4 == 0:
                continue
            a1 = solve_quartic_constraint(a2, a3, a4)
            a0 = _random_rational(rng)
            alphas = (a0, a1, a2, a3, a4)
        elif family == CUBIC:
            alphas = tuple(_random_rational(rng) for _ in range(4))
            if alphas[3] == 0:
                continue
        else:
            alphas = (_random_rational(rng), _random_rational(rng))
            if alphas[1] == 0:
                continue
        spec = FamilySpec(family, g, eps=eps, alphas=alphas)
        chi = char_poly_z(spec)
        if require_squarefree_chi and not _sf(chi):
            continue
        return spec
    raise DegenerateSampleError(f"resampling budget {RESAMPLE_BUDGET} exhausted")

