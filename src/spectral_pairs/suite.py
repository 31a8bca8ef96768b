"""The acceptance checks, shared by the CLI ``suite`` command and the tests.

Each criterion function performs one self-contained end-to-end check and
returns a :class:`CriterionResult` with a pass verdict, a short detail string,
and its wall-clock time; nothing is cached between criteria.  Budgets are
enforced by the caller (the test suite), not here.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .centralizer import (
    action_matrix,
    find_commuting_operator,
    hyperelliptic_pair,
    series_kernel_basis,
)
from .families import (
    CUBIC,
    EXPONENTIAL,
    QUARTIC,
    FamilySpec,
    char_poly_z,
    make_L4,
)
from .numeric import (
    bessel_change_check,
    eigen_residual,
    integrate_kernel,
    numeric_roots,
)
from .operators import DiffOp
from .rings import CharPoly, PolyRing, reduce_mod_char
from .verify import (
    DEFAULT_SEED,
    sample_spec,
    verify_corollary,
    verify_eigen_identity,
)

RESIDUAL_BOUND = 1e-6
BESSEL_BOUND = 1e-5


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _timed(name, fn):
    t0 = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(name, passed, detail, time.perf_counter() - t0)


# -- exact identity criteria -----------------------------------------------------


def check_cubic_g2_symbolic() -> CriterionResult:
    def run():
        rep = verify_eigen_identity(FamilySpec(CUBIC, 2))
        return rep.remainder_is_zero, f"remainder zero: {rep.remainder_is_zero}"

    return _timed("cubic g=2 symbolic eigen identity", run)


def check_cubic_g4_symbolic() -> CriterionResult:
    def run():
        rep = verify_eigen_identity(FamilySpec(CUBIC, 4))
        return rep.remainder_is_zero, f"remainder zero: {rep.remainder_is_zero}"

    return _timed("cubic g=4 symbolic eigen identity", run)


def check_quartic_symbolic_and_samples(samples: int = 25) -> CriterionResult:
    def run():
        ok = True
        for g in (1, 2):
            ok &= verify_eigen_identity(FamilySpec(QUARTIC, g)).remainder_is_zero
        rng = random.Random(DEFAULT_SEED)
        for _ in range(samples):
            spec = sample_spec(QUARTIC, 1, rng)
            for g in (1, 2):
                at_g = FamilySpec(QUARTIC, g, alphas=spec.alphas)
                ok &= verify_eigen_identity(at_g).remainder_is_zero
        return ok, f"symbolic g=1,2 and {samples} specializations"

    return _timed("quartic symbolic + random specializations", run)


def check_exponential_all_branches() -> CriterionResult:
    def run():
        ok = True
        for g in range(1, 7):
            for eps in (0, 1):
                rep = verify_eigen_identity(FamilySpec(EXPONENTIAL, g, eps=eps))
                ok &= rep.remainder_is_zero
        return ok, "g in 1..6, both branches, symbolic coefficients"

    return _timed("exponential family symbolic eigen identities", run)


def check_conjugation_ring(samples: int = 10) -> CriterionResult:
    def run():
        rng = random.Random(DEFAULT_SEED)
        ok = True
        for _ in range(samples):
            spec = sample_spec(CUBIC, 2, rng, require_squarefree_chi=True)
            r1 = verify_corollary(spec, "l4")
            partner = find_commuting_operator(make_L4(spec), 10)
            r2 = verify_corollary(spec, "l4g2", partner=partner)
            spec4 = sample_spec(CUBIC, 4, rng, require_squarefree_chi=True)
            r3 = verify_corollary(spec4, "l4")
            ok &= (
                r1.remainder_is_zero
                and r2.remainder_is_zero
                and r3.remainder_is_zero
                and r1.witness is not None
                and r2.witness is not None
                and r3.witness is not None
            )
        return ok, f"{samples} samples, g=2 both orders and g=4"

    return _timed("conjugated commutator divisibility at samples", run)


def _centralizer_check(g: int, order: int, f_degree: int):
    spec = FamilySpec(CUBIC, g, alphas=(0, 0, 0, 1))
    l4 = make_L4(spec)
    m = find_commuting_operator(l4, order)
    if not m.is_monic() or m.order != order:
        return False, "partner not monic of the requested order"
    if not l4.commutator(m).is_zero():
        return False, "commutator not exactly zero"
    m2, curve = hyperelliptic_pair(l4, m)
    f_slice = curve.w_slice(0)
    shape_ok = (
        curve.w_degree() == 2
        and curve.w_slice(2) == [Fraction(1)]
        and not any(curve.w_slice(1))
        and len(f_slice) - 1 == f_degree
    )
    if not shape_ok:
        return False, f"curve shape unexpected: {curve}"
    identity = curve.eval_at_operators(l4, m2)
    if not identity.is_zero():
        return False, "operator identity R(L4, M) != 0"
    return True, f"order-{order} partner, curve {curve}"


def check_order6_pair() -> CriterionResult:
    return _timed("order-6 partner and curve, g=1", lambda: _centralizer_check(1, 6, 3))


def check_g2_pair() -> CriterionResult:
    return _timed("order-10 partner and curve, g=2", lambda: _centralizer_check(2, 10, 5))


# -- numeric criteria ------------------------------------------------------------


def check_numeric_residuals() -> CriterionResult:
    def run():
        worst = 0.0
        s1 = FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1))
        g1 = integrate_kernel(s1, False, init=(1.0, 0.3), interval=(0, 1),
                              tol=1e-10, n_points=1001)
        worst = max(worst, eigen_residual(s1, 0.0, g1))
        s2 = FamilySpec(CUBIC, 2, alphas=(0, 1, 0, 1))
        g2 = integrate_kernel(s2, False, init=(1.0, 0.3), interval=(0, 1),
                              tol=1e-10, n_points=1001)
        for z in numeric_roots(char_poly_z(s2)):
            worst = max(worst, eigen_residual(s2, z, g2))
        s3 = FamilySpec(EXPONENTIAL, 1, alphas=(0, 1))
        g3 = integrate_kernel(s3, True, init=(1.0, 0.3), interval=(0, 2),
                              tol=1e-10, n_points=2001)
        worst = max(worst, eigen_residual(s3, -0.25, g3))
        return worst < RESIDUAL_BOUND, f"worst residual {worst:.2e}"

    return _timed("finite-difference eigen residuals", run)


def check_bessel_form() -> CriterionResult:
    def run():
        res = bessel_change_check(0, 1)
        if res >= BESSEL_BOUND:
            return False, f"residual {res:.2e} above bound"
        # refinement study: 6th-order stencil, tol below the truncation range
        levels = [bessel_change_check(0, 1, n_points=n, half_width=3, tol=1e-12)
                  for n in (26, 51, 101)]
        ratios = [levels[i] / levels[i + 1] for i in range(len(levels) - 1)]
        conv_ok = all(r >= 16.0 for r in ratios)
        detail = f"residual {res:.2e}, refinement ratios " + ", ".join(
            f"{r:.1f}" for r in ratios
        )
        return conv_ok, detail

    return _timed("second-order form change of variables", run)


# -- property suites (criterion: all green at the stated counts) ------------------


def _random_poly(ring: PolyRing, rng: random.Random, max_deg=3, n_terms=4, span=5):
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            rng.randint(-max_deg, max_deg) if v in ring.laurent
            else rng.randint(0, max_deg)
            for v in ring.variables
        )
        terms[exp] = Fraction(rng.randint(-span, span), rng.randint(1, 4))
    return ring.from_terms(terms)


def leibniz_suite(cases: int = 1000, seed: int = DEFAULT_SEED) -> bool:
    """(ab)' = a'b + ab' on random pairs, in every coefficient ring."""
    rng = random.Random(seed)
    rings = [
        PolyRing(("x",)),
        PolyRing(("x", "a0", "a3")),
        PolyRing(("x", "a4"), laurent=("a4",)),
        PolyRing(("x", "t", "a0"), laurent=("t",)),
    ]
    for ring in rings:
        for _ in range(cases):
            a, b = _random_poly(ring, rng), _random_poly(ring, rng)
            if (a * b).derive() != a.derive() * b + a * b.derive():
                return False
    return True


def _random_op(ring: PolyRing, rng: random.Random, max_order=4) -> DiffOp:
    order = rng.randint(0, max_order)
    return DiffOp(
        ring,
        [_random_poly(ring, rng, max_deg=2, n_terms=2) for _ in range(order + 1)],
    )


def division_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> bool:
    """N = Q*D + R reconstruction with order(R) < order(D), random monic D."""
    rng = random.Random(seed)
    ring = PolyRing(("x",))
    for _ in range(cases):
        n = _random_op(ring, rng, max_order=5)
        d_order = rng.randint(1, 3)
        d = DiffOp(
            ring,
            [_random_poly(ring, rng, max_deg=2, n_terms=2) for _ in range(d_order)]
            + [ring.one],
        )
        q, r = n.right_divmod(d)
        if q * d + r != n or (not r.is_zero() and r.order >= d.order):
            return False
    return True


def jacobi_suite(cases: int = 200, seed: int = DEFAULT_SEED) -> bool:
    """[[A,B],C] + [[B,C],A] + [[C,A],B] = 0 on random triples."""
    rng = random.Random(seed)
    ring = PolyRing(("x",))
    for _ in range(cases):
        a, b, c = (_random_op(ring, rng, max_order=2) for _ in range(3))
        total = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        if not total.is_zero():
            return False
    return True


def quotient_hom_suite(cases: int = 500, seed: int = DEFAULT_SEED) -> bool:
    """Reduction modulo chi is a ring homomorphism on sums and products."""
    rng = random.Random(seed)
    ring = PolyRing(("x", "z"))
    base = PolyRing(("x",))
    x = base.var("x")
    chi = CharPoly(base, [x + 1, base.const(Fraction(-2)), base.one])
    for _ in range(cases):
        p = _random_poly(ring, rng)
        q = _random_poly(ring, rng)
        rp, rq = reduce_mod_char(p, chi), reduce_mod_char(q, chi)
        if reduce_mod_char(p * q, chi) != rp * rq:
            return False
        if reduce_mod_char(p + q, chi) != rp + rq:
            return False
    return True


def truncation_stability_suite() -> bool:
    """Action matrices agree across growing series truncations."""
    spec = FamilySpec(CUBIC, 1, alphas=(0, 0, 0, 1))
    l4 = make_L4(spec)
    m = find_commuting_operator(l4, 6)
    mats = [
        action_matrix(m, series_kernel_basis(l4, n)) for n in (18, 26, 34)
    ]
    return mats[0] == mats[1] == mats[2]


def check_property_suites() -> CriterionResult:
    def run():
        results = {
            "leibniz": leibniz_suite(),
            "division": division_suite(),
            "jacobi": jacobi_suite(),
            "quotient-hom": quotient_hom_suite(),
            "truncation": truncation_stability_suite(),
        }
        failed = [k for k, v in results.items() if not v]
        return not failed, "all green" if not failed else f"failed: {failed}"

    return _timed("randomized property suites", run)


ALL_CRITERIA = (
    check_cubic_g2_symbolic,
    check_cubic_g4_symbolic,
    check_quartic_symbolic_and_samples,
    check_exponential_all_branches,
    check_conjugation_ring,
    check_order6_pair,
    check_g2_pair,
    check_numeric_residuals,
    check_bessel_form,
    check_property_suites,
)


def run_suite(out=None) -> bool:
    """Run every acceptance check; one verdict line each; True iff all pass."""
    ok = True
    for idx, check in enumerate(ALL_CRITERIA, start=1):
        result = check()
        ok &= result.passed
        verdict = "PASS" if result.passed else "FAIL"
        line = f"[{verdict}] {idx:2d}. {result.name} ({result.elapsed_s:.1f}s) - {result.detail}"
        if out is not None:
            out.write(line + "\n")
            out.flush()
    return ok
