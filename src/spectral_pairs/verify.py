"""Exact verification of the eigenfunction and commutation identities.

Every check reduces an analytic statement to ring algebra: an order-4
operator annihilating the two-dimensional kernel of a monic order-2 operator
must right-divide by it with zero remainder.  A nonzero remainder is reported
with its witness intact, never corrected.  The corollary's witness and
remainder are reported as the division leaves them, p^-3 times an operator
over K[x] (:class:`Cleared`): no fraction field is built.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import ClassVar

from .centralizer import find_commuting_operator
from .errors import (
    DegenerateSampleError,
    NotCoveredError,
    RingMismatchError,
    SpectralPairsError,
)
from .families import (
    CUBIC,
    QUARTIC,
    FamilySpec,
    _l4_from,
    _shifted,
    char_poly_z,
    coefficient_ring,
    make_schrodinger,
    multiplier_p,
    solve_quartic_constraint,
)
from .operators import DiffOp, _derivatives
from .rings import CharPoly, MultiPoly, PolyRing, QuotientExt, QuotientRing, rational_roots
from .rings.quotient import _split_rational_roots

RESAMPLE_BUDGET = 50
DEFAULT_SEED = 20140441


@dataclass(frozen=True)
class Cleared:
    """p^-3 op, op an operator over K[x]."""

    op: DiffOp
    p: MultiPoly | QuotientExt
    k: ClassVar[int] = 3

    @property
    def order(self):
        return self.op.order

    def is_zero(self) -> bool:
        return self.op.is_zero()


@dataclass
class VerificationReport:
    """Outcome of one exact identity check."""

    identity_id: str
    mode: str  # symbolic | specialized
    remainder_is_zero: bool
    params: dict = field(default_factory=dict)
    witness: DiffOp | Cleared | None = None
    remainder: DiffOp | Cleared | None = None
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

    Builds N = L4 p - z p as an operator (p and z acting by multiplication;
    z p changes only the D^0 coefficient of L4 p, so it is one subtraction)
    and right-divides by L2; the identity holds iff the remainder vanishes.
    For deg chi >= 2 the computation runs in Base[z]/(chi), treating z as a
    formal root without choosing one.  L2 is built once: L4 is formed from
    it in closed form (:func:`families._l4_from`), and the exponential
    family divides by the shifted L2 + (g+eps)^2/4.
    """
    t0 = time.perf_counter()
    l2 = make_schrodinger(spec)
    l4 = _l4_from(spec, l2)
    l2 = _shifted(spec, l2)
    chi = char_poly_z(spec)
    if chi.degree == 1:
        z = (-chi.coeffs[0]).map_to(coefficient_ring(spec))
    else:
        ring = QuotientRing(coefficient_ring(spec), chi)
        l2 = _lift_op(l2, ring)
        l4 = _lift_op(l4, ring)
        z = ring.gen
    p = multiplier_p(spec, z)
    lp = l4 * DiffOp.mult(p)
    n = DiffOp(lp.ring, [lp.coeffs[0] - z * p, *lp.coeffs[1:]])
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


def _branches(chi: CharPoly):
    """Every root class of chi over Q.

    Each rational root, as a Fraction, and at most one Q[x][z]/(f), as a
    QuotientRing, for the monic cofactor f the rational roots leave.
    """
    roots, cofactor = _split_rational_roots(chi)
    out = sorted(set(roots))
    if len(cofactor) > 1:
        # no rational roots left: irreducible over Q for degree <= 3
        monic = [c / cofactor[-1] for c in cofactor]
        out.append(QuotientRing(PolyRing(("x",)), CharPoly(PolyRing(()), monic)))
    return out


def _cleared_commutator(l: DiffOp, l2: DiffOp, p) -> DiffOp:
    """p^3 [p^-1 L p, L2] as an operator over the polynomial ring of p.

    With N = L p = sum_j n_j D^j and L2 = D^2 + V, the rule L2 p^-1 =
    p^-1 L2 + (p^-1)'' + 2 (p^-1)' D gives

        C3 = p^3 [p^-1 N, L2] = p^2 [N, L2] - (2 p'^2 - p p'') N + 2 p p' (D N),

    whose D^j coefficient, read off in closed form, is

        p^2 X_j - (2 p'^2 - p p'') n_j + 2 p p' (n_j' + n_(j-1)),
        X_j = -n_j'' - 2 n_(j-1)' + sum_(k>=1) C(j+k, k) V^(k) n_(j+k):

    the n_j D^(j+2) terms of N L2 and L2 N cancel and are never formed.  Each
    coefficient is two kernel sums, X_j first and then the line above with p^2
    factored out of X_j's terms; p^2, 2 p'^2 - p p'' and 2 p p' are formed
    once, one kernel sum each, and V is differentiated at most ord N times,
    stopping at its first zero derivative.  L2 must be monic of order 2 with
    no D term.
    """
    if l2.order != 2 or not l2.is_monic() or not l2.coeff(1).is_zero():
        raise SpectralPairsError("the cleared commutator needs L2 = D^2 + V")
    n = l * DiffOp.mult(p)
    if n.ring != l2.ring:
        raise RingMismatchError("L and L2 are over different rings")
    ring, n0 = n.ring, n.coeffs
    one = ring.one
    n1 = [c.derive() for c in n0]
    n2 = [c.derive() for c in n1]
    dp = p.derive()
    p2 = p * p
    lower = ring.sum_products([(2, dp, dp), (-1, p, dp.derive())])
    shift = ring.sum_products([(2, p, dp)])
    vk = _derivatives(l2.coeff(0), len(n0) - 1)[1:]  # V^(k), k = 1, 2, ...
    out = []
    for j in range(len(n0) + 1):
        x_terms, terms = [], []
        if j < len(n0):
            x_terms += [(-1, one, n2[j])]
            x_terms += [(comb(j + k, k), vk[k - 1], n0[j + k])
                        for k in range(1, min(len(vk), len(n0) - 1 - j) + 1)]
            terms += [(-1, lower, n0[j]), (1, shift, n1[j])]
        if j:
            x_terms.append((-2, one, n1[j - 1]))
            terms.append((1, shift, n0[j - 1]))
        terms.append((1, p2, ring.sum_products(x_terms)))
        out.append(ring.sum_products(terms))
    return DiffOp(ring, out)


def verify_corollary(
    spec: FamilySpec, which: str = "l4", partner: DiffOp | None = None
) -> VerificationReport:
    """Check [p^-1 L p, L2] = B L2 at specialized rational parameters.

    ``which`` selects L = L4 ("l4") or the computed commuting partner of
    order 4g+2 ("l4g2"); for the latter a precomputed ``partner`` may be
    passed to skip the centralizer search.  Every rational root of chi and
    the irreducible non-rational factor (as Q[x][z]/(factor)) is checked;
    the report aggregates them and keeps the first witness B.  L2 is built
    once, and L4 from it in closed form (:func:`families._l4_from`).

    Each branch runs division-free over K[x], K the rationals or
    Q[z]/(factor): with N = L p = sum_j n_j D^j and L2 = D^2 + V it
    right-divides the cleared commutator

        C3 = p^2 [N, L2] - (2 p'^2 - p p'') N + 2 p p' (D N) = p^3 [p^-1 L p, L2],

    built in closed form (:func:`_cleared_commutator`) with D^j coefficient

        p^2 X_j - (2 p'^2 - p p'') n_j + 2 p p' (n_j' + n_(j-1)),
        X_j = -n_j'' - 2 n_(j-1)' + sum_(k>=1) C(j+k, k) V^(k) n_(j+k),

    X_j formed first so that p^2 multiplies one sum, not each of its terms,

    by the monic L2, C3 = B~ L2 + R~, and re-checks B~ L2 + R~ = C3.  If
    [p^-1 L p, L2] = B L2 + R over Frac(K[x]), then C3 = (p^3 B) L2 + p^3 R
    with order(p^3 R) < 2; right division by a monic operator is unique, so
    B~ = p^3 B and R~ = p^3 R.  The verdict is R~ = 0.  The reported witness
    and remainder are p^-3 B~ and p^-3 R~, as :class:`Cleared` operators.
    """
    if spec.symbolic:
        raise NotCoveredError("conjugation checks run at specialized parameters only")
    if spec.family != CUBIC or spec.g not in (2, 4):
        raise NotCoveredError("conjugation checks cover the cubic family, g in {2, 4}")
    t0 = time.perf_counter()
    l2 = make_schrodinger(spec)
    if which == "l4":
        l = _l4_from(spec, l2)
    elif which == "l4g2":
        l = partner if partner is not None else find_commuting_operator(
            _l4_from(spec, l2), 4 * spec.g + 2
        )
    else:
        raise ValueError(f"unknown target {which!r}")
    chi = char_poly_z(spec)
    all_zero = True
    witness = None
    first_remainder = None
    for branch in _branches(chi):
        # z a rational root, or the generator of Q[x][z]/(factor)
        quotient = isinstance(branch, QuotientRing)
        l_k, l2_k = (_lift_op(l, branch), _lift_op(l2, branch)) if quotient else (l, l2)
        p = multiplier_p(spec, branch.gen if quotient else branch)
        if p.is_zero():
            # degenerate root: p cannot conjugate; skip unless nothing is left
            continue
        c3 = _cleared_commutator(l_k, l2_k, p)
        b, r = c3.right_divmod(l2_k)
        if b * l2_k + r != c3:
            raise SpectralPairsError("right division failed its reconstruction check")
        if not r.is_zero():
            all_zero = False
            if first_remainder is None:
                first_remainder = Cleared(r, p)
        if witness is None:
            witness = Cleared(b, p)
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


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def sample_spec(
    family: str,
    g: int,
    rng: random.Random,
    eps: int = 0,
    require_squarefree_chi: bool = False,
) -> FamilySpec:
    """A random specialized member of the family, resampled when degenerate.

    Degenerate means: violated preconditions (a4 = 0, zero multiplier data) or
    a non-squarefree chi when the corollary check will follow.  The budget
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

