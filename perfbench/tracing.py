"""Span and counter recorder installed around the package's layer boundaries.

The recorder wraps public functions and ring/operator methods of an already
imported ``spectral_pairs`` in place; nothing in the package itself changes.
Every wrapped call adds to a per-name (calls, total seconds, self seconds)
tally, where self time is the call's duration minus the time covered by
wrapped calls nested inside it.  Calls at coarse layer boundaries also record
a span (name, start, end, parent, op) kept in memory; element-level ring
arithmetic is too frequent for one span per call and only feeds the tallies.

The recorder is single-threaded, like the benchmark's closed loop.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

_clock = time.perf_counter


def fraction_bits(q) -> int:
    """Bit size of a rational: the larger of numerator and denominator."""
    q = Fraction(q)
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _max_bits(values) -> int:
    return max((fraction_bits(v) for v in values if v), default=0)


class Tracer:
    """Tallies and spans for wrapped calls; ``active`` gates all recording."""

    def __init__(self):
        self.active = False
        self.stats: dict = {}  # name -> [calls, total_s, self_s, raised]
        self.spans: list = []  # (id, name, start, end, parent id, op id)
        self.systems: list = []  # one dict per nullspace call
        self.op_id = None
        self._stack: list = []  # frames: [child seconds, span id, parent span id]
        self._current_span = None
        self._next_id = 0
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _enter(self, with_span: bool):
        span_id = None
        if with_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id, self._current_span]
        self._stack.append(frame)
        if with_span:
            self._current_span = span_id
        return frame

    def _exit(self, name: str, frame, start: float, end: float, raised: bool):
        self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        st[3] += raised
        if self._stack:
            self._stack[-1][0] += dur
        if frame[1] is not None:
            self._current_span = frame[2]
            self.spans.append((frame[1], name, start, end, frame[2], self.op_id))

    def call(self, name: str, fn, args, kwargs, with_span: bool):
        frame = self._enter(with_span)
        start = _clock()
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
            return out
        finally:
            self._exit(name, frame, start, _clock(), raised)

    def op(self, name: str, op_id: int, fn):
        """Run ``fn()`` as the root span of one benchmark operation."""
        self.op_id = op_id
        try:
            return self.call(name, fn, (), {}, True)
        finally:
            self.op_id = None

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, fn, with_span: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs, with_span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_nullspace(self, fn):
        tracer = self

        def nullspace(rows, ncols):
            if not tracer.active:
                return fn(rows, ncols)
            basis = tracer.call("linalg.nullspace", fn, (rows, ncols), {}, True)
            tracer.systems.append({
                "op": tracer.op_id,
                "rows": len(rows),
                "cols": ncols,
                "nullity": len(basis),
                "input_max_bits": max((_max_bits(r.values()) for r in rows), default=0),
                "output_max_bits": max((_max_bits(v) for v in basis), default=0),
            })
            return basis

        nullspace.__wrapped__ = fn
        return nullspace

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, fn, replacement):
        """Rebind every module-level name that refers to ``fn``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, replacement)

    def install(self, sp):
        """Wrap the layer boundaries of the imported package ``sp``."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "spectral_pairs" or k.startswith("spectral_pairs."))
        ]
        functions = [
            ("centralizer.build_ansatz_system", sp.centralizer.build_ansatz_system),
            ("centralizer.find_commuting_operator", sp.centralizer.find_commuting_operator),
            ("centralizer.series_kernel_basis", sp.centralizer.series_kernel_basis),
            ("centralizer.action_matrix", sp.centralizer.action_matrix),
            ("centralizer.spectral_curve", sp.centralizer.spectral_curve),
            ("centralizer.hyperelliptic_pair", sp.centralizer.hyperelliptic_pair),
            ("curves.charpoly_w", sp.curves.charpoly_w),
            ("curves.squarefree_normalize", sp.curves.squarefree_normalize),
            ("verify.verify_corollary", sp.verify.verify_corollary),
            ("verify.verify_eigen_identity", sp.verify.verify_eigen_identity),
            ("verify.verify_commutation", sp.verify.verify_commutation),
            ("rings.rational_roots", sp.rings.rational_roots),
            ("numeric.integrate_kernel", sp.numeric.integrate_kernel),
            ("numeric.eigen_residual", sp.numeric.eigen_residual),
            ("numeric.bessel_change_check", sp.numeric.bessel_change_check),
        ]
        for name, fn in functions:
            self._patch_function(modules, fn, self._wrap(name, fn, True))
        self._patch_function(modules, sp.linalg.nullspace,
                             self._wrap_nullspace(sp.linalg.nullspace))

        # (class, method, tally name, keep spans); __rmul__ aliases __mul__
        methods = [
            (sp.operators.DiffOp, "__mul__", "operators.mul", False),
            (sp.operators.DiffOp, "commutator", "operators.commutator", False),
            (sp.operators.DiffOp, "right_divmod", "operators.right_divmod", True),
            (sp.operators.DiffOp, "conjugate_by_unit", "operators.conjugate_by_unit", True),
            (sp.curves.SpectralCurve, "eval_at_operators", "curves.eval_at_operators", True),
            (sp.rings.MultiPoly, "__mul__", "rings.multipoly.mul", False),
            (sp.rings.MultiPoly, "__rmul__", "rings.multipoly.mul", False),
            (sp.rings.QuotientExt, "__mul__", "rings.quotient.mul", False),
            (sp.rings.QuotientExt, "__rmul__", "rings.quotient.mul", False),
            (sp.rings.FractionElem, "__mul__", "rings.fraction_field.mul", False),
            (sp.rings.FractionElem, "__rmul__", "rings.fraction_field.mul", False),
            (sp.rings.TwistedLaurent, "__mul__", "rings.twisted.mul", False),
            (sp.rings.TwistedLaurent, "__rmul__", "rings.twisted.mul", False),
        ]
        for cls, attr, name, with_span in methods:
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], with_span))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out -----------------------------------------------------------

    def _stat(self, name: str, k: int):
        return self.stats.get(name, (0, 0.0, 0.0, 0))[k]

    def calls(self, name: str) -> int:
        return self._stat(name, 0)

    def total_s(self, name: str) -> float:
        return self._stat(name, 1)

    def self_s(self, name: str) -> float:
        return self._stat(name, 2)

    def errors(self, name: str) -> int:
        return self._stat(name, 3)

    def span_records(self) -> list:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, n, s, e, p, o in self.spans
        ]
