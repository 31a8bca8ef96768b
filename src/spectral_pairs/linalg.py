"""Exact rational nullspaces of sparse rows, computed modulo primes.

Rows are dicts {column index: Fraction}.  :func:`nullspace` returns the basis
that reduced row echelon form over Q gives, one vector per free column, but it
never eliminates over Q: rational Gauss-Jordan pays for the growth of its
intermediate coefficients, while the answer is usually small.  Instead the
rows are eliminated modulo 61-bit primes, the basis is combined over several
primes by the Chinese remainder theorem when one is not enough, every entry is
recovered by Wang's rational reconstruction with balanced bounds, and the
result is accepted only after an exact re-check over Q.  (Monagan's maximal
quotient variant, 2004, can need fewer primes for unbalanced fractions; the
balanced bound is the one the prime budget below is proved for.)  Everything
is deterministic, so witnesses are reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import SpectralPairsError

# Miller-Rabin with these bases is deterministic below 3.3e24, far above 2**61
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES: list = []  # primes below 2**61, descending from 2**61 - 1
_PRIME_BITS = 60  # every prime used is above 2**60


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i: int) -> int:
    """The i-th prime below 2**61, counting down from the Mersenne prime."""
    while len(_PRIMES) <= i:
        n = _PRIMES[-1] - 2 if _PRIMES else (1 << 61) - 1
        while not _is_prime(n):
            n -= 2
        _PRIMES.append(n)
    return _PRIMES[i]


def _integer_rows(rows: list) -> list:
    """Each nonzero row times the lcm of its denominators, in the given order."""
    out = []
    for row in rows:
        items = [(c, v) for c, v in row.items() if v]
        if items:
            den = lcm(*(v.denominator for _, v in items))
            out.append({c: v.numerator * (den // v.denominator) for c, v in items})
    return out


def _prime_budget(int_rows: list, ncols: int) -> int:
    """Primes after which a correct basis must have been verified.

    Every basis entry is a ratio of two r x r minors of the integer matrix
    (Cramer's rule), and Hadamard's inequality bounds both by H, the product
    of the r largest row norms; below, 2 log2 H < s.  Primes above 2**60 whose
    product exceeds 2 H**2 reconstruct every entry, so ceil((s + 1) / 60)
    lucky primes suffice.  An unlucky prime divides one fixed nonzero minor,
    so there are at most s // 120 of them.
    """
    sizes = sorted(
        (sum(v * v for v in row.values()).bit_length() for row in int_rows),
        reverse=True,
    )
    s = sum(sizes[:ncols])
    return -(-(s + 1) // _PRIME_BITS) + s // (2 * _PRIME_BITS)


def _nullspace_mod(int_rows: list, ncols: int, p: int):
    """(pivot columns, {free column: [entry at each pivot column]}) mod p.

    Pivots follow the rational elimination's rule: columns in order, the
    first remaining row with a nonzero entry.  Forward elimination leaves
    normalized echelon rows; back substitution then gives, for each free
    column f, the reduced row echelon entries -R[pivot][f].
    """
    work = []
    for row in int_rows:
        red = {c: v % p for c, v in row.items() if v % p}
        if red:
            work.append(red)
    echelon = []  # (pivot column, row normalized to 1 at the pivot)
    for col in range(ncols):
        for k, row in enumerate(work):
            if col in row:
                break
        else:
            continue
        prow = work.pop(k)
        inv = pow(prow.pop(col), -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        remaining = []
        for row in work:
            f = row.pop(col, 0)
            if f:
                for c, v in prow.items():
                    nv = (row.get(c, 0) - f * v) % p
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
            if row:
                remaining.append(row)
        work = remaining
        echelon.append((col, prow))
    pivots = [col for col, _ in echelon]
    pivot_set = set(pivots)
    vectors = {}
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        x = {fc: 1}
        for pc, prow in reversed(echelon):
            s = sum(v * x[c] for c, v in prow.items() if c in x) % p
            if s:
                x[pc] = p - s
        vectors[fc] = [x.get(pc, 0) for pc in pivots]
    return pivots, vectors


def _combine(acc: dict, modulus: int, new: dict, p: int) -> dict:
    """CRT-combine residues mod ``modulus`` with residues mod ``p``."""
    inv = pow(modulus, -1, p)
    return {
        fc: [a + modulus * ((b - a) * inv % p) for a, b in zip(acc[fc], new[fc])]
        for fc in acc
    }


def _rational(u: int, m: int, bound: int):
    """The a/b with a = b u (mod m), |a| <= bound, 0 < b <= bound, or None.

    Wang's reconstruction by the extended Euclidean algorithm; with
    2 bound**2 < m the answer is unique when it exists.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _reconstruct(pivots: list, residues: dict, modulus: int, ncols: int):
    bound = isqrt(modulus // 2)
    basis = []
    for fc, entries in residues.items():
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, u in zip(pivots, entries):
            if u:
                q = _rational(u, modulus, bound)
                if q is None:
                    return None
                v[pc] = q
        basis.append(v)
    return basis


def _annihilates(int_rows: list, v: list) -> bool:
    """A v = 0 exactly over Q (each integer row is a nonzero multiple of A's)."""
    den = lcm(*(q.denominator for q in v if q))
    w = {c: q.numerator * (den // q.denominator) for c, q in enumerate(v) if q}
    return all(
        not sum(a * w[c] for c, a in row.items() if c in w) for row in int_rows
    )


def nullspace(rows: list, ncols: int) -> list:
    """Basis of {v : A v = 0} as dense Fraction lists, one per free column.

    The basis is exactly the one the reduced row echelon form R of A over Q
    gives: for each free column f in increasing order, v[f] = 1, v = 0 at
    the other free columns and v[c] = -R[c][f] at each pivot column c.

    Rows are scaled to integers and eliminated modulo primes p below 2**61
    (the first is 2**61 - 1); the residues of the basis are CRT-combined and
    each entry is rationally reconstructed.  A prime whose pivot set is
    lexicographically later than the earliest seen so far (a missing pivot
    counts as later) is unlucky and is dropped; an earlier pivot set restarts
    the combination.  Primes are added until a reconstructed basis passes the
    exact check A v = 0 over Q for every vector.

    Why a basis that passes the check is the rational one.  Let P be the
    pivot set modulo p and Q the pivot set over Q.  A minor that vanishes
    over Q vanishes mod p, so the rank of every leading block of columns mod
    p is at most its rank over Q.  Take the smallest column j where P and Q
    differ.  If j is in P but not in Q, the first j + 1 columns would have
    larger rank mod p than over Q, which is impossible.  If j is in Q but
    not in P, the vector of the free column j is zero past j except at
    pivots of P before j (echelon rows with later pivots vanish at j), and
    these are pivots of Q; A v = 0 then writes column j as a combination of
    earlier pivot columns, so j is not a pivot over Q.  Hence P = Q, and each
    checked vector is the unique null vector that is 1 at its free column and
    0 at the others: the reduced row echelon form's.

    :func:`_prime_budget` bounds the number of primes this takes; going past
    it raises :class:`SpectralPairsError`.
    """
    int_rows = _integer_rows(rows)
    budget = _prime_budget(int_rows, ncols)
    best_key = None
    for i in range(budget):
        p = _prime(i)
        pivots, vectors = _nullspace_mod(int_rows, ncols, p)
        key = (*pivots, ncols)
        if best_key is not None and key > best_key:
            continue
        if best_key is None or key < best_key:
            best_key, residues, modulus = key, vectors, p
        else:
            residues = _combine(residues, modulus, vectors, p)
            modulus *= p
        basis = _reconstruct(pivots, residues, modulus, ncols)
        if basis is not None and all(_annihilates(int_rows, v) for v in basis):
            return basis
    raise SpectralPairsError(
        f"modular nullspace not verified within its bound of {budget} primes"
    )
