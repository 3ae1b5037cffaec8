import random
from fractions import Fraction

import pytest

from tanisaki.polynomial import Polynomial


def random_polynomial(rng: random.Random, n: int, max_terms=5, max_exp=3, max_coeff=9,
                      rational=False) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        c = rng.randint(-max_coeff, max_coeff)
        if rational:
            c = Fraction(c, rng.randint(1, 7))
        terms[exps] = terms.get(exps, 0) + c
    return Polynomial(n, {m: c for m, c in terms.items() if c})


def variables(n: int) -> list[Polynomial]:
    """The variables x_1..x_n, for writing fixtures as Python expressions."""
    return [Polynomial.variable(n, j) for j in range(1, n + 1)]


def random_point(rng: random.Random, n: int):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(20260809)
