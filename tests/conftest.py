import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from operator import sub
from pathlib import Path

import pytest

import tanisaki
from tanisaki.groebner import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    buchberger,
    modular_series,
    staircase_series,
    standard_monomials,
)
from tanisaki.ideals import k_tanisaki_generators, lambda_coefficient, tanisaki_generators
from tanisaki.linalg import filtration_check, integral_freeness_check
from tanisaki.partitions import enumerate_partitions
from tanisaki.polynomial import Polynomial, PolynomialError, _norm_coeff, degrevlex_key


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


def elementary_symmetric(n: int, k: int, indices: tuple[int, ...] | None = None) -> Polynomial:
    """e_k of the selected variables (1-based; all n variables when omitted).

    e_0 = 1; identically zero when k exceeds the number of selected variables.
    """
    if k < 0:
        raise PolynomialError(f"elementary symmetric index must be >= 0, got {k}")
    if indices is None:
        indices = tuple(range(1, n + 1))
    if len(set(indices)) != len(indices) or not all(1 <= i <= n for i in indices):
        raise PolynomialError(f"variable indices {indices} must be distinct and in 1..{n}")
    terms = {}
    for chosen in combinations(indices, k):
        e = [0] * n
        for i in chosen:
            e[i - 1] = 1
        terms[tuple(e)] = 1
    return Polynomial(n, terms)


def shift_variables(p: Polynomial, delta) -> Polynomial:
    """p with x_j -> x_j + delta substituted for every variable."""
    delta = _norm_coeff(delta)
    terms = p.terms
    for j in range(p.n):
        # one variable per pass: x_j^e -> sum_a C(e, a) delta^(e-a) x_j^a
        res = {}
        for m, c in terms.items():
            for a in range(m[j] + 1):
                key = m[:j] + (a,) + m[j + 1:]
                res[key] = res.get(key, 0) + c * math.comb(m[j], a) * delta ** (m[j] - a)
        terms = {m: c for m, c in res.items() if c}
    return Polynomial(p.n, terms)


def evaluate(p: Polynomial, point):
    """p at the point, exactly."""
    total = Fraction(0)
    for m, c in p.terms.items():
        v = Fraction(c)
        for x, e in zip(point, m):
            v *= Fraction(x) ** e
        total += v
    return total


def augmentation(p: Polynomial):
    """p at all variables = 1."""
    return sum(p.terms.values())


def graded_component(p: Polynomial, d: int) -> Polynomial:
    """The degree-d part of p."""
    return Polynomial(p.n, {m: c for m, c in p.terms.items() if sum(m) == d})


def order_key(order, exps):
    """Sort key realizing the monomial order on exponent tuples (ascending),
    read off the order's record rather than its packing."""
    if order.kind == "lex":
        return exps
    if order.kind == "deglex":
        return (sum(exps), exps)
    return degrevlex_key(exps)


def leading_monomial(p: Polynomial, order):
    return max(p.terms, key=lambda m: order_key(order, m))


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
    order_key and each step cancels the largest remaining term.  On a
    Groebner basis every choice must land on normal_form(p, gb)."""
    lead = [(leading_monomial(g, gb.order), g) for g in gb.polys]
    terms = {m: Fraction(c) for m, c in p.terms.items()}
    remainder = {}
    while terms:
        m = max(terms, key=lambda e: order_key(gb.order, e))
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
    lmf = leading_monomial(f, order)
    lmg = leading_monomial(g, order)
    lcm = tuple(max(a, b) for a, b in zip(lmf, lmg))
    mf = {tuple(map(sub, lcm, lmf)): Fraction(1, 1) / f.terms[lmf]}
    mg = {tuple(map(sub, lcm, lmg)): Fraction(1, 1) / g.terms[lmg]}
    return Polynomial(f.n, mf) * f - Polynomial(g.n, mg) * g


def random_point(rng: random.Random, n: int):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


@pytest.fixture
def rng():
    return random.Random(20260809)


def child_env():
    """The environment for a child interpreter: this one's, with the src
    directory of the imported package first on PYTHONPATH, so the child
    imports the same package, installed or not."""
    src = str(Path(tanisaki.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


TESTS = Path(__file__).resolve().parent
PROPERTY_FILE = "tests/test_properties.py"
CRITERION_11 = "tests/test_acceptance.py::test_criterion_11_property_suites_standalone"
_standalone_run = []  # the process running the property file standalone, once started
_from_standalone_run = set()  # property items that report the standalone run's outcome


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    """Each property test runs once per session.  When criterion 11 is
    collected, `pytest tests/test_properties.py` starts in a fresh process
    beside the session, and the file's own items report their outcome in
    that run instead of running again.  They and criterion 11 move to the
    end of the session, so the rest of the suite runs while they wait."""
    ids = [item.nodeid for item in items]
    if CRITERION_11 in ids:
        _from_standalone_run.update(i for i in ids if i.startswith(PROPERTY_FILE + "::"))
        items.sort(key=lambda item: item.nodeid in _from_standalone_run
                   or item.nodeid == CRITERION_11)
        _standalone_run.append(subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-rpfE", str(TESTS / "test_properties.py")],
            cwd=TESTS.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ))


@functools.cache
def standalone_property_run():
    """Waits for the standalone run of the property file: its exit code,
    its stdout, and the outcome word of each test id."""
    proc = _standalone_run[0]
    stdout, _ = proc.communicate(timeout=600)
    outcomes = {}
    for line in stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word
    return proc.returncode, stdout, outcomes


def pytest_pyfunc_call(pyfuncitem):
    if pyfuncitem.nodeid in _from_standalone_run:
        _, stdout, outcomes = standalone_property_run()
        if outcomes.get(pyfuncitem.nodeid) != "PASSED":
            pytest.fail(f"not passed when {PROPERTY_FILE} ran standalone:\n{stdout}",
                        pytrace=False)
        return True
    return None


def pytest_sessionfinish():
    """A session stopped before criterion 11 leaves no standalone run behind."""
    for proc in _standalone_run:
        if proc.returncode is None:
            proc.kill()
            proc.communicate()


def cohomology_basis(lam):
    """The degrevlex cohomology basis that the filtration and freeness suites
    of a default verify run read."""
    return buchberger(tanisaki_generators(lam), DEGREVLEX)


def kbasis(lam, order=DEGREVLEX):
    """The K-basis in the v-convention, under order (degrevlex by default)."""
    return buchberger(k_tanisaki_generators(lam, "v"), order)


@functools.cache
def primes_cases():
    """(presentation, order, rational basis): every partition of n <= 6 under
    lex, deglex and degrevlex, in cohomology and in both K conventions;
    completed once per session, for every test that reads them."""
    return tuple((pres, order, buchberger(pres, order))
                 for n in range(1, 7) for lam in enumerate_partitions(n)
                 for order in (LEX, DEGLEX, DEGREVLEX)
                 for pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u"),
                              k_tanisaki_generators(lam, "v")))


def series_of(gb):
    return staircase_series(standard_monomials(gb))


def k_series(lam):
    """Per-degree K-staircase counts: v-convention, degrevlex, as a default verify uses."""
    return series_of(kbasis(lam))


def coinvariant_series_oracle(n):
    """Coefficients of prod_{i=1}^{n} (1 + t + ... + t^(i-1))."""
    series = [1]
    for i in range(1, n + 1):
        nxt = [0] * (len(series) + i - 1)
        for a, c in enumerate(series):
            for b in range(i):
                nxt[a + b] += c
        series = nxt
    return tuple(series)


def filtration_of(lam):
    """The filtration report on verify's one series, once the independent
    K(v) completion is shown to have the cohomology staircase series."""
    series = series_of(cohomology_basis(lam))
    assert k_series(lam) == series, lam
    return filtration_check(lam, series)


def freeness_of(lam):
    """The prime-certificate freeness report, with verify's inputs."""
    gb = cohomology_basis(lam)
    modular = modular_series(gb, lam.springer_dimension() + 1)
    return integral_freeness_check(lam, series_of(gb), gb.primes, modular)


def without_smallest_prime(gb, max_degree):
    """A `groebner.modular_series` that drops the series of the smallest
    prime the basis records: a planted fault of the modular layer."""
    return {p: series for p, series in modular_series(gb, max_degree).items()
            if p != min(gb.primes)}
