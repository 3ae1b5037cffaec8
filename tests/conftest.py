import random
from fractions import Fraction
from operator import sub

import pytest

from tanisaki.groebner import (
    DEGREVLEX,
    buchberger,
    modular_series,
    staircase_series,
    standard_monomials,
)
from tanisaki.ideals import k_tanisaki_generators, lambda_coefficient, tanisaki_generators
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


def lambda_coefficients(n, lines, shift, truncation):
    """lambda^0 .. lambda^truncation of sum_{i in lines} [L_i] + shift, each
    built by lambda_coefficient."""
    return [lambda_coefficient(n, lines, shift, k) for k in range(truncation + 1)]


def series_by_multiplication(n, lines, shift, truncation):
    """The coefficients t^0 .. t^truncation of prod_i (1 + u_i t) * (1 + t)^shift,
    by Polynomial arithmetic on truncated series: one multiplication by
    (1 + u_i t) per line, then |shift| multiplications or divisions by
    (1 + t); a division b = a / (1 + t) solves b_k = a_k - b_(k-1)."""
    series = [Polynomial.constant(n, 1)] + [Polynomial.zero(n)] * truncation
    factors = [Polynomial.variable(n, i) for i in lines]
    factors += [Polynomial.constant(n, 1)] * max(shift, 0)
    for f in factors:
        series = [series[0]] + [series[k] + series[k - 1] * f for k in range(1, truncation + 1)]
    for _ in range(-shift):
        quotient = [series[0]]
        for k in range(1, truncation + 1):
            quotient.append(series[k] - quotient[k - 1])
        series = quotient
    return series


def random_path_normal_form(p: Polynomial, gb, rng: random.Random) -> Polynomial:
    """Remainder of p modulo gb.polys by textbook division over Fraction,
    with rng picking among the eligible reducers at every step.

    Shares no code with the Groebner engine: leading monomials come from
    gb.order.key and each step cancels the largest remaining term.  On a
    Groebner basis every choice must land on normal_form(p, gb)."""
    key = gb.order.key
    lead = [(max(g.terms, key=key), g) for g in gb.polys]
    terms = {m: Fraction(c) for m, c in p.terms.items()}
    remainder = {}
    while terms:
        m = max(terms, key=key)
        eligible = [(lm, g) for lm, g in lead if all(a <= b for a, b in zip(lm, m))]
        if not eligible:
            remainder[m] = terms.pop(m)
            continue
        lm, g = rng.choice(eligible)
        factor = terms[m] / g.terms[lm]
        for e, c in g.terms.items():
            t = tuple(x + y - z for x, y, z in zip(e, m, lm))
            v = terms.get(t, 0) - factor * c
            if v:
                terms[t] = v
            else:
                terms.pop(t, None)
    return Polynomial(p.n, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order) -> Polynomial:
    """The S-polynomial of f and g under order, over Fraction."""
    key = order.key
    lmf = max(f.terms, key=key)
    lmg = max(g.terms, key=key)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = {tuple(map(sub, lcm, lmf)): Fraction(1, 1) / f.terms[lmf]}
    mg = {tuple(map(sub, lcm, lmg)): Fraction(1, 1) / g.terms[lmg]}
    return Polynomial(f.n, mf) * f - Polynomial(g.n, mg) * g


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
