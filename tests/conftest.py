import random
from fractions import Fraction

import pytest

from spectral_pairs.rings import PolyRing
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
