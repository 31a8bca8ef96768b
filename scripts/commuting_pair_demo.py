#!/usr/bin/env python3
"""Compute the commuting partner and spectral curve for a cubic-potential instance.

For the default instance (V = x^3, g = 1) this prints the monic order-6
operator M with [L4, M] = 0 and the hyperelliptic curve w^2 - F(z) that the
pair satisfies as an exact operator identity.
"""

from spectral_pairs.centralizer import find_commuting_operator, hyperelliptic_pair
from spectral_pairs.cli import MAX_PARTNER_ORDER, ArgumentParser, _fraction, _int_at_least
from spectral_pairs.errors import ConstraintError, DegenerateSampleError, NotCoveredError
from spectral_pairs.families import CUBIC, FamilySpec, make_L4
from spectral_pairs.reports import curve_dict


def main() -> None:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument(
        "--g", type=_int_at_least(1, (MAX_PARTNER_ORDER - 2) // 4), default=1,
        help="target order is 4g+2",
    )
    parser.add_argument(
        "--alpha", type=_fraction, nargs=4, default=(0, 0, 0, 1),
        metavar=("A0", "A1", "A2", "A3"),
        help="cubic potential coefficients, constant term first",
    )
    args = parser.parse_args()

    try:
        spec = FamilySpec(CUBIC, args.g, alphas=tuple(args.alpha))
        l4 = make_L4(spec)
        print(f"L4   = {l4}")
        m = find_commuting_operator(l4, 4 * args.g + 2)
        m, curve = hyperelliptic_pair(l4, m)
    except NotCoveredError as exc:
        parser.exit(2, f"not covered: {exc}\n")
    except ConstraintError as exc:
        parser.exit(2, f"invalid parameters: {exc}\n")
    except DegenerateSampleError as exc:
        parser.exit(2, f"degenerate parameters, nothing checked: {exc}\n")
    print(f"M    = {m}")
    print(f"[L4, M] = 0: {l4.commutator(m).is_zero()}")
    print(f"curve: {curve_dict(curve)}")
    print(f"R(L4, M) = 0: {curve.eval_at_operators(l4, m).is_zero()}")


if __name__ == "__main__":
    main()
