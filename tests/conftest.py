import random
from fractions import Fraction

import pytest

from tanisaki.groebner import (
    DEGREVLEX,
    buchberger,
    modular_series,
    staircase_series,
    standard_monomials,
)
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.linalg import filtration_check, integral_freeness_check
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


def cohomology_basis(lam):
    """The degrevlex cohomology basis that verify's filtration and freeness
    suites read."""
    return buchberger(tanisaki_generators(lam), DEGREVLEX)


def series_of(gb):
    return staircase_series(standard_monomials(gb))


def k_series(lam):
    """Per-degree K-staircase counts: v-convention, degrevlex, as verify uses."""
    return series_of(buchberger(k_tanisaki_generators(lam, "v"), DEGREVLEX))


def filtration_of(lam):
    return filtration_check(lam, series_of(cohomology_basis(lam)), k_series(lam))


def freeness_of(lam):
    """The prime-certificate freeness report, with verify's inputs."""
    gb = cohomology_basis(lam)
    modular = modular_series(gb, lam.springer_dimension() + 1)
    return integral_freeness_check(lam, series_of(gb), modular)
