import random
from fractions import Fraction
from math import comb

import pytest

from spectral_pairs.linalg import nullspace
from spectral_pairs.operators import DiffOp
from spectral_pairs.rings import MultiPoly, PolyRing, QuotientExt
from spectral_pairs.suite import _random_poly as random_poly  # noqa: F401


def random_rational(rng, span=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


@pytest.fixture
def rng():
    return random.Random(1729)


@pytest.fixture
def xring():
    return PolyRing(("x",))


@pytest.fixture
def tring():
    """Laurent polynomials in t = exp(x/2)."""
    return PolyRing(("t",), laurent=("t",))


def multipoly_x_split(target_ring):
    """x_split for MultiPoly coefficients: expand in x, embed the rest.

    Returns a function mapping a MultiPoly to [(x-power, element of
    ``target_ring``)], suitable for :meth:`DiffOp.apply_to_series`.
    """

    def split(coeff):
        if "x" in coeff.ring.variables:
            buckets = coeff.coefficients_in("x")
        else:
            buckets = {0: coeff}
        return [(s, c.map_to(target_ring)) for s, c in buckets.items()]

    return split


# -- reference products: the per-term loops the kernels replaced ---------------------


def multipoly_product_oracle(p, q):
    """p*q by one Fraction product and one dict update per term pair."""
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return MultiPoly(p.ring, terms)


def quotient_product_oracle(a, b):
    """a*b in Base[z]/(chi): schoolbook z-product, then reduction by z^d."""
    qring = a.ring
    d = qring.degree
    base = qring.base
    work = [base.zero] * (2 * d - 1)
    for i, ai in enumerate(a.coords):
        for j, bj in enumerate(b.coords):
            work[i + j] = work[i + j] + multipoly_product_oracle(ai, bj)
    # z^d = -(c_0 + ... + c_{d-1} z^{d-1})
    for top in range(2 * d - 2, d - 1, -1):
        for i, c in enumerate(qring.chi.coeffs[:-1]):
            work[top - d + i] = work[top - d + i] - multipoly_product_oracle(work[top], c)
    return QuotientExt(qring, work[:d])


def ring_product_oracle(a, b):
    if isinstance(a, MultiPoly):
        return multipoly_product_oracle(a, b)
    if isinstance(a, QuotientExt):
        return quotient_product_oracle(a, b)
    return a * b


def times_int(elem, k: int):
    if isinstance(elem, QuotientExt):
        return QuotientExt(elem.ring, [c * k for c in elem.coords])
    return elem * k


def leibniz_compose(a, b):
    """a*b by the per-coefficient Leibniz loop, one ring product per term."""
    if a.is_zero() or b.is_zero():
        return DiffOp.zero(a.ring)
    na, nb = len(a.coeffs), len(b.coeffs)
    db = [list(b.coeffs)]
    for _ in range(na - 1):
        db.append([c.derive() for c in db[-1]])
    out = [a.ring.zero] * (na + nb - 1)
    for i, ai in enumerate(a.coeffs):
        for k in range(i + 1):
            for j, bj in enumerate(db[k]):
                term = ring_product_oracle(ai, bj)
                out[i + j - k] = out[i + j - k] + times_int(term, comb(i, k))
    return DiffOp(a.ring, out)


def right_divmod_oracle(n, d):
    """Right division by a monic d, one full operator product per quotient term."""
    q = DiffOp.zero(n.ring)
    r = n
    while not r.is_zero() and r.order >= d.order:
        e = r.order - d.order
        step = DiffOp(n.ring, [n.ring.zero] * e + [r.coeffs[-1]])
        q = q + step
        r = r - leibniz_compose(step, d)
    return q, r


def cleared_commutator_oracle(l, l2, p):
    """p^3 [p^-1 L p, L2] by the composition chain the closed form replaced.

    With N = L p: p^2 (N L2 - L2 N) - (2 p'^2 - p p'') N + 2 p p' (D N),
    each product composed in full and each factor applied by ``scale``.
    """
    assert l2.coeff(1).is_zero()
    dp = p.derive()
    n = l * DiffOp.mult(p)
    return (
        (n * l2 - l2 * n).scale(p * p)
        - n.scale(2 * dp * dp - p * dp.derive())
        + (DiffOp.d(n.ring) * n).scale(2 * p * dp)
    )


# -- reference back-substitution: one Fraction product per dense-list entry ---------


def dense_oracle(poly) -> list:
    """Fraction coefficients of a one-variable polynomial, lowest power first."""
    out = [Fraction(0)] * (max((e for (e,) in poly.terms), default=-1) + 1)
    for (e,), c in poly.terms.items():
        out[e] = c
    return out


def derivatives_oracle(p: list, count: int) -> list:
    out = [p]
    for _ in range(count):
        p = [c * e for e, c in enumerate(p)][1:]
        out.append(p)
    return out


def add_product_oracle(acc: list, scale: int, p: list, q: list) -> None:
    """acc += scale * p * q for dense polynomials, growing acc as needed."""
    if not p or not q:
        return
    acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for s, a in enumerate(p):
        if a:
            a *= scale
            for t, b in enumerate(q):
                if b:
                    acc[s + t] += a * b


def commutator_coeff_oracle(a: list, m: list, r: int, lo: int) -> list:
    """Dense D^r coefficient of [L, sum_{j >= lo} m_j D^j], by Leibniz."""
    acc: list = []
    for j in range(lo, len(m)):
        for k, ak in enumerate(a):
            l = k + j - r
            if l < 1:
                continue
            if l <= k:
                add_product_oracle(acc, comb(k, l), ak[0], m[j][l])
            if l <= j and l < len(ak):
                add_product_oracle(acc, -comb(j, l), m[j][0], ak[l])
    while acc and not acc[-1]:
        acc.pop()
    return acc


def partial_solution_oracle(a: list, k: int) -> list:
    """Derivative lists of m_0 .. m_k for M_k, integrating term by term."""
    n = len(a) - 1
    m = [None] * (k + 1)
    m[k] = derivatives_oracle([Fraction(1)], n)
    for i in range(k - 1, -1, -1):
        f = commutator_coeff_oracle(a, m, i + n - 1, i + 1)
        integral = [Fraction(-c, n * (e + 1)) for e, c in enumerate(f)]
        m[i] = derivatives_oracle([Fraction(0)] + integral if f else [], n)
    return m


def commuting_operators_oracle(l4, order):
    """(partials, constraint rows, space) of ``commuting_operators``, on Fractions."""
    ring = l4.ring
    n = l4.order
    a = [dense_oracle(c) for c in l4.coeffs]
    a = [derivatives_oracle(p, len(p)) for p in a]
    partials = [partial_solution_oracle(a, k) for k in range(order + 1)]
    constraints: dict = {}
    for k, mk in enumerate(partials):
        for r in range(n - 1):
            for e, c in enumerate(commutator_coeff_oracle(a, mk, r, 0)):
                if c:
                    constraints.setdefault((r, e), {})[k] = c
    rows = [r for _, r in sorted(constraints.items())]
    space = []
    for vec in nullspace(rows, order + 1):
        coeffs = []
        for i in range(len(vec)):
            dense: list = []
            for k in range(i, len(vec)):
                add_product_oracle(dense, 1, [vec[k]], partials[k][i][0])
            coeffs.append(ring.from_terms({(e,): c for e, c in enumerate(dense)}))
        space.append(DiffOp(ring, coeffs))
    return partials, rows, space

# -- reference curves: the two-truncation computation the single basis replaced ---


def sympy_squarefree_curve(curve):
    """The squarefree part of a curve in w over Q(z), monic in w, by sympy."""
    import sympy

    from spectral_pairs.curves import SpectralCurve

    z, w = sympy.symbols("z w")
    expr = sum(
        (sympy.Rational(c.numerator, c.denominator) * z ** i * w ** j
         for (i, j), c in curve.terms.items()),
        sympy.Integer(0),
    )
    part = sympy.Poly(expr, w, domain=sympy.QQ.frac_field(z)).sqf_part().monic()
    # over Q[z, w] this fails unless the monic part is polynomial in z
    poly = sympy.Poly(part.as_expr(), z, w, domain=sympy.QQ)
    return SpectralCurve({k: Fraction(int(c.p), int(c.q)) for k, c in poly.terms()})


def spectral_curve_oracle(l4, m):
    """The curve from two kernel bases, at ord M + 12 and ord M + 20.

    Both action matrices are formed and must agree before sympy takes the
    squarefree part of det(w I - A); each call expands [L4, M] again.
    """
    from spectral_pairs.centralizer import action_matrix, series_kernel_basis
    from spectral_pairs.curves import charpoly_w

    assert l4.commutator(m).is_zero()
    n = int(m.order) + 12
    mat = action_matrix(m, series_kernel_basis(l4, n))
    assert mat == action_matrix(m, series_kernel_basis(l4, n + 8))
    return sympy_squarefree_curve(charpoly_w(mat))


def hyperelliptic_pair_oracle(l4, m):
    """(M', R) by shifting M by b(L4)/2 and computing the shifted curve afresh."""
    curve = spectral_curve_oracle(l4, m)
    assert curve.w_degree() == 2
    b = curve.w_slice(1)
    if any(b):
        for k, c in enumerate(b):
            if c:
                m = m + (l4 ** k).scale(l4.ring.const(c / 2))
        curve = spectral_curve_oracle(l4, m)
        assert not any(curve.w_slice(1))
    return m, curve


# -- reference numerics: the per-offset stencil loops and the pointwise multiplier ---


def fd_derivative_oracle(values, h: float, m: int, half_width: int = 5):
    """Fornberg stencil applied one offset at a time, NaN at the margins."""
    import numpy as np

    from spectral_pairs.numeric import fd_weights

    offsets = np.arange(-half_width, half_width + 1)
    w = fd_weights(m, offsets) / h ** m
    out = np.full(len(values), np.nan, dtype=complex)
    acc = np.zeros(len(values) - 2 * half_width, dtype=complex)
    for off, wt in zip(offsets, w):
        lo = half_width + off
        acc += wt * values[lo:lo + len(acc)]
    out[half_width:len(values) - half_width] = acc
    return out


def ls_derivative_oracle(values, h: float, m: int, half_width: int, degree: int):
    """Least-squares stencil applied one offset at a time, NaN at the margins."""
    import numpy as np

    from spectral_pairs.numeric import ls_weights

    w = ls_weights(m, half_width, degree, h)
    out = np.full(len(values), np.nan, dtype=complex)
    acc = np.zeros(len(values) - 2 * half_width, dtype=complex)
    for k, wt in enumerate(w):
        acc += wt * values[k:k + len(acc)]
    out[half_width:len(values) - half_width] = acc
    return out


def multiplier_values_oracle(spec, z: complex, xs):
    """p(x) at a numeric z, one grid point and one term at a time."""
    import numpy as np

    from spectral_pairs.families import coefficient_ring, multiplier_p
    from spectral_pairs.rings import CharPoly, QuotientRing

    def eval_numeric(poly, values):
        total = 0j
        for e, c in poly.terms.items():
            term = complex(c)
            for name, k in zip(poly.ring.variables, e):
                if k:
                    term *= values[name] ** k
            total += term
        return total

    dummy = CharPoly(PolyRing(()), [0, 0, 0, Fraction(1)])
    p = multiplier_p(spec, QuotientRing(coefficient_ring(spec), dummy).gen)
    return np.array([
        sum(eval_numeric(coord, {"x": x}) * z ** zi for zi, coord in enumerate(p.coords))
        for x in xs
    ])
