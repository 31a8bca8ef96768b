"""Serialization of verification reports, spectral curves, and grid data.

All exact quantities cross the boundary as "num/den" strings; floats appear
only in grid CSV files.  JSON output is key-sorted so that identical inputs
produce byte-identical reports (elapsed_ms aside).
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .curves import SpectralCurve
from .numeric import GridFunction
from .verify import VerificationReport

TOOL_VERSION = "0.1.0"

CSV_HEADER = "x,phi_re,phi_im,psi_re,psi_im,residual"


def _rat(q: Fraction) -> str:
    return str(Fraction(q))


def report_dict(report: VerificationReport, seed=None) -> dict:
    return {
        "identity_id": report.identity_id,
        "mode": report.mode,
        "params": dict(report.params),
        "remainder_is_zero": report.remainder_is_zero,
        "witness_order": report.witness_order,
        "elapsed_ms": int(round(report.elapsed_s * 1000)),
        "tool_version": TOOL_VERSION,
        "seed": seed,
    }


def curve_dict(curve: SpectralCurve) -> dict:
    out = {}
    for (i, j), c in curve.terms.items():
        key = "*".join(([f"z^{i}"] if i else []) + ([f"w^{j}"] if j else [])) or "1"
        out[key] = _rat(c)
    return out


def grid_csv(grid: GridFunction, psi=None, residual=None) -> bytes:
    """Grid data as CSV with the normative header; missing columns are 0/nan."""
    import numpy as np
    n = len(grid.x)
    psi = np.zeros(n, dtype=complex) if psi is None else np.asarray(psi, dtype=complex)
    residual = np.full(n, np.nan) if residual is None else np.asarray(residual, dtype=float)
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    phi = np.asarray(grid.phi, dtype=complex)
    for k in range(n):
        buf.write(
            f"{grid.x[k]:.16g},{phi[k].real:.16g},{phi[k].imag:.16g},"
            f"{psi[k].real:.16g},{psi[k].imag:.16g},{residual[k]:.16g}\n"
        )
    return buf.getvalue().encode()


def emit_report(report: VerificationReport, seed=None) -> bytes:
    """A verification report as key-sorted JSON (see :func:`report_dict`)."""
    payload = report_dict(report, seed=seed)
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
