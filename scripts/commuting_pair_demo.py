#!/usr/bin/env python3
"""Compute the commuting partner and spectral curve for a cubic-potential instance.

For the default instance (V = x^3, g = 1) this prints the monic order-6
operator M with [L4, M] = 0 and the hyperelliptic curve w^2 - F(z) that the
pair satisfies as an exact operator identity.
"""

from fractions import Fraction

from spectral_pairs.centralizer import find_commuting_operator, hyperelliptic_pair
from spectral_pairs.cli import ArgumentParser
from spectral_pairs.families import CUBIC, FamilySpec, make_L4
from spectral_pairs.reports import curve_dict


def main() -> None:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("--g", type=int, default=1, help="target order is 4g+2")
    parser.add_argument(
        "--alpha", type=Fraction, nargs=4, default=(0, 0, 0, 1),
        metavar=("A0", "A1", "A2", "A3"),
        help="cubic potential coefficients, constant term first",
    )
    args = parser.parse_args()

    spec = FamilySpec(CUBIC, args.g, alphas=tuple(args.alpha))
    l4 = make_L4(spec)
    print(f"L4   = {l4}")
    m = find_commuting_operator(l4, 4 * args.g + 2)
    m, curve = hyperelliptic_pair(l4, m)
    print(f"M    = {m}")
    print(f"[L4, M] = 0: {l4.commutator(m).is_zero()}")
    print(f"curve: {curve_dict(curve)}")
    print(f"R(L4, M) = 0: {curve.eval_at_operators(l4, m).is_zero()}")


if __name__ == "__main__":
    main()
