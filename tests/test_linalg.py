from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs import linalg
from spectral_pairs.centralizer import find_commuting_operator
from spectral_pairs.errors import SpectralPairsError
from spectral_pairs.families import CUBIC, FamilySpec, make_L4

sympy = pytest.importorskip("sympy")

P61 = (1 << 61) - 1


def _dense(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def _annihilated(rows, v):
    return all(sum(c * v[k] for k, c in row.items()) == 0 for row in rows)


def _counting_primes(monkeypatch):
    """Patch the per-prime elimination to record the primes it is called with."""
    seen = []
    inner = linalg._nullspace_mod

    def spy(int_rows, ncols, p):
        seen.append(p)
        return inner(int_rows, ncols, p)

    monkeypatch.setattr(linalg, "_nullspace_mod", spy)
    return seen


def _sympy_rref_basis(rows, ncols):
    """sympy's nullspace, normalized to 1 at its own free column, 0 at the others."""
    mat = sympy.Matrix(_dense(rows, ncols)) if rows else sympy.zeros(1, ncols)
    _, pivots = mat.rref()
    free = [c for c in range(ncols) if c not in pivots]
    basis = mat.nullspace()
    if not basis:
        return []
    stacked = sympy.Matrix.hstack(*basis).T  # one basis vector per row
    normalized = stacked[:, free].inv() * stacked
    return [
        [Fraction(int(e.p), int(e.q)) for e in normalized.row(i)]
        for i in range(normalized.rows)
    ]


entry = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9)),
)


@st.composite
def sparse_systems(draw):
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, 5))
    rows = []
    for _ in range(nrows):
        values = [draw(entry) for _ in range(ncols)]
        rows.append({c: v for c, v in enumerate(values) if v})
    # rank-deficient cases: append combinations of rows already drawn
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
        combo = {c: rows[i].get(c, 0) + a * rows[j].get(c, 0) for c in range(ncols)}
        rows.append({c: v for c, v in combo.items() if v})
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(sparse_systems())
def test_hypothesis_matches_sympy_nullspace(system):
    rows, ncols = system
    assert linalg.nullspace(rows, ncols) == _sympy_rref_basis(rows, ncols)


def test_empty_and_full_rank_systems():
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    assert linalg.nullspace([{}, {0: Fraction(0)}], 1) == [[1]]
    assert linalg.nullspace([{0: Fraction(3)}, {1: Fraction(-1, 2)}], 2) == []
    assert linalg.nullspace([], 0) == []


def test_basis_is_rref_form():
    # x0 + 2 x2 = 0, x1 - x2 / 3 = 0: free columns 2 and 3
    rows = [{0: Fraction(1), 2: Fraction(2)}, {1: Fraction(1), 2: Fraction(-1, 3)}]
    assert linalg.nullspace(rows, 4) == [
        [Fraction(-2), Fraction(1, 3), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_large_entries_need_crt(monkeypatch):
    # the null vector is (-b/a, 1) with |b|, a > 2**30: one 61-bit prime
    # cannot reconstruct -b/a, so residues of several primes are combined
    a, b = 2**40 + 15, -(3**29)
    assert a > 2**30 and abs(b) > 2**30
    seen = _counting_primes(monkeypatch)
    basis = linalg.nullspace([{0: Fraction(a), 1: Fraction(b)}], 2)
    assert basis == [[Fraction(-b, a), Fraction(1)]]
    assert len(seen) == 2 and len(set(seen)) == 2


def test_crt_with_large_denominators_in_the_rows(monkeypatch):
    rows = [
        {0: Fraction(3**25, 7**14), 1: Fraction(5**20, 11**12), 2: Fraction(1)},
        {1: Fraction(2**45 + 1), 2: Fraction(-(13**11), 17)},
    ]
    seen = _counting_primes(monkeypatch)
    (v,) = linalg.nullspace(rows, 3)
    assert v[2] == 1 and _annihilated(rows, v)
    assert max(abs(q.numerator) for q in v) > 2**30
    assert len(seen) >= 2


def test_unlucky_first_prime_is_dropped(monkeypatch):
    # row 0 vanishes modulo 2**61 - 1, so that prime misses pivot column 0 and
    # its basis fails the exact check; the next prime has the earlier pivot
    # set and restarts the combination
    rows = [{0: Fraction(P61), 1: Fraction(P61)}, {1: Fraction(1), 2: Fraction(1)}]
    seen = _counting_primes(monkeypatch)
    assert linalg.nullspace(rows, 3) == [[Fraction(1), Fraction(-1), Fraction(1)]]
    assert seen[0] == P61 and len(seen) == 2


def test_unlucky_prime_with_large_answer(monkeypatch):
    # the answer -1/P61 needs three lucky primes after the unlucky first one
    seen = _counting_primes(monkeypatch)
    basis = linalg.nullspace([{0: Fraction(P61), 1: Fraction(1)}], 2)
    assert basis == [[Fraction(-1, P61), Fraction(1)]]
    assert seen == [linalg._prime(i) for i in range(4)]


def test_unlucky_later_prime_is_dropped(monkeypatch):
    # the first prime is lucky but cannot reconstruct -1/q on its own; the
    # second prime q misses pivot column 0 and must not enter the combination
    q = linalg._prime(1)
    seen = _counting_primes(monkeypatch)
    basis = linalg.nullspace([{0: Fraction(q), 1: Fraction(1)}], 2)
    assert basis == [[Fraction(-1, q), Fraction(1)]]
    assert seen == [linalg._prime(i) for i in range(4)]


def test_prime_list_is_descending_and_prime():
    primes = [linalg._prime(i) for i in range(5)]
    assert primes[0] == P61
    assert primes == sorted(primes, reverse=True)
    assert all(p > 2**60 for p in primes)
    assert all(sympy.isprime(p) for p in primes)
    assert linalg._is_prime(2) and not linalg._is_prime(1)
    assert not linalg._is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_exceeding_the_prime_budget_raises(monkeypatch):
    # a basis that can never pass the exact check must end in an error
    monkeypatch.setattr(linalg, "_annihilates", lambda int_rows, v: False)
    with pytest.raises(SpectralPairsError, match="bound of"):
        linalg.nullspace([{0: Fraction(1), 1: Fraction(1)}], 2)


def test_generic_cubic_g3_partner_is_monic_and_commutes():
    l4 = make_L4(FamilySpec(CUBIC, 3, alphas=(3, -2, 1, -1)))
    m = find_commuting_operator(l4, 14)
    assert m.order == 14
    assert m.is_monic()
    assert l4.commutator(m).is_zero()
