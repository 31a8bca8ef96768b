"""The benchmark's seeded workloads.

Each workload turns a seed into a fixed list of input items (``build``), runs
one item as a timed operation through the package's public API (``run``),
compares the operation's verdict with its known answer (``check``) and runs
seeded known-false controls on the outputs (``controls``).  Only ``run`` is
timed; checks and controls are the benchmark's own work.

``check`` returns a status and the item's input properties:

* ``ok``    the verdict matches the known answer;
* ``gate``  a numeric residual is above its gate (counted in ``fail_ratio``,
  not a wrong answer: the exact identity holds, the cross-check could not
  confirm it at the suite's bound);
* ``wrong`` the verdict contradicts the known answer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import spectral_pairs as sp
from spectral_pairs import centralizer, families, numeric, verify
from spectral_pairs.families import CUBIC, EXPONENTIAL, QUARTIC, FamilySpec
from spectral_pairs.suite import BESSEL_BOUND, RESIDUAL_BOUND
from tracing import fraction_bits

# criterion 9 asks every refinement ratio of the Bessel ladder to reach this
REFINEMENT_FLOOR = 16.0

V_CUBE = (0, 0, 0, 1)


@dataclass
class Item:
    kind: str
    label: str
    spec: FamilySpec | None = None
    data: dict = field(default_factory=dict)


def _spec_props(spec: FamilySpec) -> dict:
    return {
        "alphas": [str(a) for a in spec.alphas],
        "alpha_max_bits": max(fraction_bits(a) for a in spec.alphas),
    }


def _branch_props(spec: FamilySpec) -> dict:
    """How verify_corollary splits chi: rational roots vs one quotient field."""
    chi = families.char_poly_z(spec)
    roots = sp.rings.rational_roots(chi)
    return {
        "chi_degree": chi.degree,
        "branches_rational": len(set(roots)),
        "branches_irrational": int(len(roots) < chi.degree),
    }


def _perturb_operator(op, rng: random.Random):
    """op + c x^j d^k with c != 0 and j >= 1: never commutes with a monic L4."""
    ring = op.ring
    k = rng.randint(0, int(op.order) - 1)
    j = rng.randint(1, 3)
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
    term = sp.DiffOp(ring, [ring.zero] * k + [ring.var("x") ** j * c])
    return op + term


def _commutation_control(l4, m, rng):
    perturbed = _perturb_operator(m, rng)
    rep = verify.verify_commutation(l4, perturbed, "control-perturbed-partner")
    return "commutation with a perturbed partner", not rep.remainder_is_zero


def eigen_remainder(spec: FamilySpec, chi):
    """Remainder of (L4 p - z p) right-divided by L2 in Q[x][z]/(chi).

    With the family's own chi this is the exact eigen identity (zero
    remainder); with any other chi it must leave a nonzero remainder.
    """
    ring = sp.QuotientRing(families.coefficient_ring(spec), chi)

    def lift(op):
        return sp.DiffOp(ring, [ring.from_base(c) for c in op.coeffs])

    l2 = lift(families.make_schrodinger(spec))
    l4 = lift(families.make_L4(spec))
    z = ring.gen
    p = families.multiplier_p(spec, z)
    n = l4 * sp.DiffOp.mult(p) - sp.DiffOp.mult(z * p)
    return n.right_divmod(l2)[1]


def perturbed_chi(spec: FamilySpec, rng: random.Random):
    chi = families.char_poly_z(spec)
    shift = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
    return sp.CharPoly(chi.ring, [chi.coeffs[0] + shift] + list(chi.coeffs[1:]))


def _eigen_control(spec, rng):
    r = eigen_remainder(spec, perturbed_chi(spec, rng))
    return f"eigen identity of {spec.identity_id()} modulo a perturbed chi", not r.is_zero()


class Workload:
    name = ""

    def build(self, seed: int, minimal: bool = False) -> list:
        raise NotImplementedError

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, result):
        raise NotImplementedError

    def controls(self, item: Item, result, rng: random.Random) -> list:
        return []


# -- partner-generic -------------------------------------------------------------


def _sample_g2(rng: random.Random) -> FamilySpec:
    return verify.sample_spec(CUBIC, 2, rng, require_squarefree_chi=True)


class PartnerGeneric(Workload):
    """Order-10 partner search plus the l4g2 corollary, generic cubic g=2.

    The input is the first generic sample of ``verify.DEFAULT_SEED``, the
    (4, 1, -2/3, -1) system of the baseline measurements; the run's seed
    drives its known-false control.  One such operation takes 20-30 s, and
    seeded samples of the same distribution cost 15-31 s each, so a run that
    timed one or two seeded samples varied by 26-30 % (quartile distance over
    median) from seed to seed, more than any bound may allow.
    """

    name = "partner-generic"

    def build(self, seed, minimal=False):
        spec = _sample_g2(random.Random(verify.DEFAULT_SEED))
        return [Item("partner", f"partner g=2 {spec.params_dict()}", spec,
                     {"l4": families.make_L4(spec)})]

    def run(self, item):
        m = centralizer.find_commuting_operator(item.data["l4"], 10)
        rep = verify.verify_corollary(item.spec, "l4g2", partner=m)
        return m, rep

    def check(self, item, result):
        m, rep = result
        ok = (
            m.is_monic()
            and m.order == 10
            and item.data["l4"].commutator(m).is_zero()
            and rep.remainder_is_zero
            and rep.witness is not None
        )
        props = {**_spec_props(item.spec), **_branch_props(item.spec)}
        return ("ok" if ok else "wrong"), props

    def controls(self, item, result, rng):
        return [_commutation_control(item.data["l4"], result[0], rng)]


# -- curve-small ------------------------------------------------------------------


class CurveSmall(Workload):
    """The spectral-curve path on small systems: V = x^3 at g = 1, 2, 3 and
    seeded generic cubic potentials at g = 1 (order 6)."""

    name = "curve-small"
    generic_samples = 1

    def build(self, seed, minimal=False):
        specs = [FamilySpec(CUBIC, g, alphas=V_CUBE) for g in ((1,) if minimal else (1, 2, 3))]
        rng = random.Random(seed)
        for _ in range(1 if minimal else self.generic_samples):
            alphas = verify.sample_spec(CUBIC, 2, rng).alphas
            specs.append(FamilySpec(CUBIC, 1, alphas=alphas))
        return [
            Item("curve", f"curve g={s.g} {s.params_dict()}", s,
                 {"l4": families.make_L4(s)})
            for s in specs
        ]

    def run(self, item):
        l4 = item.data["l4"]
        order = 4 * item.spec.g + 2
        m = centralizer.find_commuting_operator(l4, order)
        m2, curve = centralizer.hyperelliptic_pair(l4, m)
        return m, m2, curve, curve.eval_at_operators(l4, m2)

    def check(self, item, result):
        m, m2, curve, identity = result
        order = 4 * item.spec.g + 2
        ok = (
            m.is_monic() and m.order == order
            and m2.is_monic() and m2.order == order
            and curve.w_degree() == 2
            and curve.w_slice(2) == [Fraction(1)]
            and not any(curve.w_slice(1))
            and len(curve.w_slice(0)) - 1 == 2 * item.spec.g + 1
            and identity.is_zero()
        )
        props = {**_spec_props(item.spec), "curve": repr(curve)}
        return ("ok" if ok else "wrong"), props

    def controls(self, item, result, rng):
        l4 = item.data["l4"]
        _, m2, curve, _ = result
        j = rng.randint(0, curve.z_degree())
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        terms = dict(curve.terms)
        terms[(j, 0)] = terms.get((j, 0), 0) + c
        bad = sp.SpectralCurve(terms).eval_at_operators(l4, m2)
        return [
            ("R(L4, M) = 0 with F perturbed", not bad.is_zero()),
            _commutation_control(l4, m2, rng),
        ]


# -- exact-identities ---------------------------------------------------------------


class ExactIdentities(Workload):
    """verify_corollary(spec, "l4") at cubic g=2 and g=4 samples, and the
    verify_eigen_identity sweep over all three families as one operation.

    The corollary inputs are criterion 5's first two g=2/g=4 pairs, drawn
    alternately from ``verify.DEFAULT_SEED`` as the suite draws them: one
    g=2 and one g=4 sample with a quotient-field branch, one of each with
    rational roots only.  The run's seed drives the sweep's quartic
    specializations and the controls.  Seeded g=4 samples cost 2.2-4.0 s
    each and dominate a pass, so drawing them from the run's seed would put
    that cost spread into every run.
    """

    name = "exact-identities"
    corollary_pairs = 2
    quartic_samples = 4

    def build(self, seed, minimal=False):
        criterion5 = random.Random(verify.DEFAULT_SEED)
        corollary = [verify.sample_spec(CUBIC, g, criterion5, require_squarefree_chi=True)
                     for _ in range(1 if minimal else self.corollary_pairs) for g in (2, 4)]
        rng = random.Random(seed)
        quartic = [verify.sample_spec(QUARTIC, 1, rng)
                   for _ in range(1 if minimal else self.quartic_samples)]
        sweep = [FamilySpec(CUBIC, 2), FamilySpec(CUBIC, 4),
                 FamilySpec(QUARTIC, 1), FamilySpec(QUARTIC, 2)]
        for s in quartic:
            sweep += [FamilySpec(QUARTIC, g, alphas=s.alphas) for g in (1, 2)]
        sweep += [FamilySpec(EXPONENTIAL, g, eps=eps)
                  for g in range(1, 7) for eps in (0, 1)]
        items = [Item("eigen-sweep", f"eigen sweep ({len(sweep)} identities)",
                      None, {"specs": sweep, "control_spec": sweep[4]})]
        for s in corollary:
            items.append(Item("corollary", f"corollary l4 g={s.g} {s.params_dict()}", s))
        return items

    def run(self, item):
        if item.kind == "eigen-sweep":
            return [verify.verify_eigen_identity(s) for s in item.data["specs"]]
        return verify.verify_corollary(item.spec, "l4")

    def check(self, item, result):
        reports = result if isinstance(result, list) else [result]
        ok = all(r.remainder_is_zero and r.witness is not None for r in reports)
        if item.kind == "eigen-sweep":
            props = {"identities": len(reports)}
        else:
            props = {**_spec_props(item.spec), **_branch_props(item.spec)}
        return ("ok" if ok else "wrong"), props

    def controls(self, item, result, rng):
        spec = item.data["control_spec"] if item.kind == "eigen-sweep" else item.spec
        return [_eigen_control(spec, rng)]


# -- numeric-crosscheck ---------------------------------------------------------------

# criterion 8 instances: (spec, shifted kernel, interval, grid points)
_NUMERIC_INSTANCES = (
    (FamilySpec(CUBIC, 2, alphas=(0, 0, 0, 1)), False, (0, 1), 1001),
    (FamilySpec(CUBIC, 2, alphas=(0, 1, 0, 1)), False, (0, 1), 1001),
    (FamilySpec(EXPONENTIAL, 1, alphas=(0, 1)), True, (0, 2), 2001),
)
# criterion 9 refinement ladder, then its default-grid residual
_BESSEL_RUNGS = (26, 51, 101)


def _distinct_roots(chi) -> list:
    out = []
    for z in numeric.numeric_roots(chi):
        if all(abs(z - w) > 1e-9 for w in out):
            out.append(z)
    return out


class NumericCrosscheck(Workload):
    """integrate_kernel plus eigen_residual at every root of chi on the
    criterion-8 instances with seeded initial data, and the criterion-9
    Bessel refinement ladder one rung per operation."""

    name = "numeric-crosscheck"
    inits_per_instance = 4

    def __init__(self):
        self._ladder: dict = {}

    def build(self, seed, minimal=False):
        rng = random.Random(seed)
        items = []
        for _ in range(1 if minimal else self.inits_per_instance):
            for spec, shifted, interval, n in _NUMERIC_INSTANCES:
                init = (1.0, rng.randint(-10, 10) / 10)
                items.append(Item(
                    "residual", f"residual {spec.identity_id()} {spec.params_dict()} init={init}",
                    spec,
                    {"shifted": shifted, "interval": interval, "n_points": n,
                     "init": init, "roots": _distinct_roots(families.char_poly_z(spec))},
                ))
        for n in _BESSEL_RUNGS:
            items.append(Item("bessel-rung", f"bessel ladder n={n}", None, {"n_points": n}))
        items.append(Item("bessel-default", "bessel default grid", None, {}))
        return items

    def run(self, item):
        d = item.data
        if item.kind == "residual":
            grid = numeric.integrate_kernel(
                item.spec, d["shifted"], init=d["init"], interval=d["interval"],
                tol=1e-10, n_points=d["n_points"],
            )
            return grid, [numeric.eigen_residual(item.spec, z, grid) for z in d["roots"]]
        if item.kind == "bessel-rung":
            return numeric.bessel_change_check(0, 1, n_points=d["n_points"],
                                               half_width=3, tol=1e-12)
        return numeric.bessel_change_check(0, 1)

    def check(self, item, result):
        if item.kind == "residual":
            worst = max(result[1])
            props = {"init": list(item.data["init"]), "instance": item.spec.identity_id(),
                     "params": item.spec.params_dict(),
                     "residual_over_bound": worst / RESIDUAL_BOUND}
            return ("ok" if worst < RESIDUAL_BOUND else "gate"), props
        props = {"bessel_over_bound": result / BESSEL_BOUND}
        ok = result < BESSEL_BOUND
        if item.kind == "bessel-rung":
            n = item.data["n_points"]
            self._ladder[n] = result
            props["n_points"] = n
            if n == _BESSEL_RUNGS[-1]:
                levels = [self._ladder.get(k) for k in _BESSEL_RUNGS]
                if None not in levels:
                    ratios = [levels[i] / levels[i + 1] for i in range(len(levels) - 1)]
                    props["refinement_ratio_over_floor"] = min(ratios) / REFINEMENT_FLOOR
                    ok = ok and min(ratios) >= REFINEMENT_FLOOR
        return ("ok" if ok else "gate"), props

    def controls(self, item, result, rng):
        if item.kind != "residual":
            return []
        grid = result[0]
        z = item.data["roots"][0] + rng.choice([-0.5, 0.5])
        res = numeric.eigen_residual(item.spec, z, grid)
        return [("residual at a shifted eigenvalue", res >= RESIDUAL_BOUND)]


WORKLOADS = {w.name: w for w in (PartnerGeneric, CurveSmall, ExactIdentities, NumericCrosscheck)}
