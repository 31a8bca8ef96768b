from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_pairs import centralizer, linalg
from spectral_pairs.centralizer import commuting_operators, find_commuting_operator
from spectral_pairs.errors import SpectralPairsError
from spectral_pairs.families import CUBIC, FamilySpec, make_L4

sympy = pytest.importorskip("sympy")

P61 = 2**61 - 1


def _dense(rows, ncols):
    return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]


def _annihilated(rows, v):
    return all(sum(c * v[k] for k, c in row.items()) == 0 for row in rows)


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


def _partner_system(g):
    """The rows and columns the partner search of the generic cubic solves."""
    seen = []

    def recording(rows, ncols):
        seen.append((rows, ncols))
        return linalg.nullspace(rows, ncols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(centralizer, "nullspace", recording)
        commuting_operators(make_L4(FamilySpec(CUBIC, g, alphas=(4, 1, Fraction(-2, 3), -1))),
                            4 * g + 2)
    (system,) = seen
    return system


Q = 2305843009213693921  # the largest prime below 2**61 - 1

_SYSTEMS = {
    # the null vector (-b/a, 1) has |b|, a > 2**30
    "large-entries": lambda: ([{0: Fraction(2**40 + 15), 1: Fraction(-(3**29))}], 2),
    "large-denominators": lambda: ([
        {0: Fraction(3**25, 7**14), 1: Fraction(5**20, 11**12), 2: Fraction(1)},
        {1: Fraction(2**45 + 1), 2: Fraction(-(13**11), 17)},
    ], 3),
    # entries that vanish modulo a 61-bit prime
    "row-multiple-of-a-prime": lambda: ([{0: Fraction(P61), 1: Fraction(P61)},
                                         {1: Fraction(1), 2: Fraction(1)}], 3),
    "answer-over-p61": lambda: ([{0: Fraction(P61), 1: Fraction(1)}], 2),
    "answer-over-q": lambda: ([{0: Fraction(Q), 1: Fraction(1)}], 2),
    "two-primes": lambda: ([{0: Fraction(P61), 1: Fraction(Q)},
                            {1: Fraction(Q, P61), 2: Fraction(-1)}], 3),
    "one-row": lambda: ([{0: Fraction(1), 1: Fraction(1)}], 2),
    "partner-generic-cubic-g2": lambda: _partner_system(2),
    "partner-generic-cubic-g4": lambda: _partner_system(4),
}


@pytest.mark.parametrize("name", list(_SYSTEMS))
def test_nullspace_matches_sympy_rref(name):
    rows, ncols = _SYSTEMS[name]()
    before = [dict(row) for row in rows]
    basis = linalg.nullspace(rows, ncols)
    assert basis == _sympy_rref_basis(rows, ncols)
    assert all(_annihilated(rows, v) for v in basis)
    assert rows == before


def test_failing_exact_check_raises(monkeypatch):
    # a basis that does not pass the exact re-check is never returned
    monkeypatch.setattr(linalg, "_annihilates", lambda int_rows, v: False)
    with pytest.raises(SpectralPairsError, match="exact check"):
        linalg.nullspace([{0: Fraction(1), 1: Fraction(1)}], 2)


def test_generic_cubic_g3_partner_is_monic_and_commutes():
    l4 = make_L4(FamilySpec(CUBIC, 3, alphas=(3, -2, 1, -1)))
    m = find_commuting_operator(l4, 14)
    assert m.order == 14
    assert m.is_monic()
    assert l4.commutator(m).is_zero()
