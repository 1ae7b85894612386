"""Seeded random phase points with bounded rational entries.

All randomness in the verification suites flows through one
random.Random(seed), so identical (config, seed) pairs reproduce byte
for byte.  Numerators lie in -BOUND..BOUND and denominators in
1..MAX_DEN, small to keep exact arithmetic fast."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

from .mumford import MumfordTriple, _coord_layout, triple_from_values
from .toda import KMPoint, TodaPoint


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed)


BOUND = 9
MAX_DEN = 9


def rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, MAX_DEN))
        if value != 0 or not nonzero:
            return value


def positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, BOUND), rng.randint(1, MAX_DEN))


def _unit_product(rng: random.Random, n: int) -> tuple:
    """n positive rationals with product 1: n - 1 drawn, the last fixed."""
    a = [positive_rational(rng) for _ in range(n - 1)]
    return (*a, 1 / prod(a, start=Fraction(1)))


def toda_point(rng: random.Random, n: int) -> TodaPoint:
    a = _unit_product(rng, n)
    return TodaPoint(a, tuple(rational(rng) for _ in range(n)))


def km_point(rng: random.Random, n: int) -> KMPoint:
    return KMPoint(_unit_product(rng, n))


def mumford_triple(rng: random.Random, flavor: str, g: int) -> MumfordTriple:
    count = sum(map(len, _coord_layout(flavor, g)))
    return triple_from_values(flavor, g, [rational(rng) for _ in range(count)])
