"""Exact rational nullspaces of sparse rows, by integer elimination.

Rows are dicts {column index: Fraction}.  :func:`nullspace` clears each row
of denominators and eliminates fraction-free over the integers, dividing
every new row by the gcd of its entries (Bareiss 1968, content-reduced), so
no Fraction is formed until the basis is read off.  The basis is accepted
only after an exact re-check A v = 0.  Everything is deterministic, so
witnesses are reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SpectralPairsError


def _integer_rows(rows: list) -> list:
    """Each nonzero row times the lcm of its denominators, in the given order."""
    out = []
    for row in rows:
        items = [(c, v) for c, v in row.items() if v]
        if items:
            den = lcm(*(v.denominator for _, v in items))
            out.append({c: v.numerator * (den // v.denominator) for c, v in items})
    return out


def _primitive(row: dict) -> dict:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _cancel(row: dict, prow: dict, col: int) -> dict:
    """Primitive a row - f prow, zero at ``col`` (a / f = prow[col] / row[col])."""
    g = gcd(prow[col], row[col])
    a, f = prow[col] // g, row[col] // g
    out = {c: a * v for c, v in row.items() if c != col}
    for c, v in prow.items():
        if c != col:
            nv = out.get(c, 0) - f * v
            if nv:
                out[c] = nv
            else:
                del out[c]
    return _primitive(out)


def _echelon(int_rows: list, ncols: int) -> list:
    """[(pivot column, row)] of the reduced row echelon form, rows unscaled.

    At each column in order the pivot is the remaining row with the fewest
    entries that is nonzero there, ties broken by the smallest |pivot|.
    """
    work = [_primitive(row) for row in int_rows]
    echelon = []
    for col in range(ncols):
        candidates = [row for row in work if col in row]
        if not candidates:
            continue
        prow = min(candidates, key=lambda row: (len(row), abs(row[col])))
        rest = (_cancel(row, prow, col) if col in row else row
                for row in work if row is not prow)
        work = [row for row in rest if row]
        echelon.append((col, prow))
    for i in range(len(echelon) - 1, -1, -1):  # back-substitution
        pc, row = echelon[i]
        for qc, qrow in echelon[i + 1:]:
            if qc in row:
                row = _cancel(row, qrow, qc)
        echelon[i] = (pc, row)
    return echelon


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
    the other free columns and v[c] = -R[c][f] at each pivot column c.  R is
    unique and its pivot columns are those where the rank of the leading
    columns grows, so the choice of pivot rows does not change the basis.
    A basis vector that fails the exact check A v = 0 raises
    :class:`SpectralPairsError`.
    """
    int_rows = _integer_rows(rows)
    echelon = _echelon(int_rows, ncols)
    pivots = {pc for pc, _ in echelon}
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for pc, row in echelon:
                if fc in row:
                    v[pc] = Fraction(-row[fc], row[pc])
            basis.append(v)
    if not all(_annihilates(int_rows, v) for v in basis):
        raise SpectralPairsError("nullspace basis fails the exact check A v = 0")
    return basis
