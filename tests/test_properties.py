"""Randomized property suites, each group runnable standalone, e.g.

    pytest tests/test_properties.py::TestRingAxioms

Every group drives at least 100 randomized cases.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tanisaki.groebner import buchberger, normal_form
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.lambda_ring import VirtualClass, gamma_op, lambda_series
from tanisaki.linalg import _invariant_factors_sparse, smith_normal_form
from tanisaki.partitions import Partition, enumerate_partitions
from tanisaki.polynomial import Polynomial, binomial

from conftest import random_polynomial


def polynomials(n, max_terms=4):
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    coeff = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(monomial, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms)
    )


class TestRingAxioms:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(polynomials(3), polynomials(3), polynomials(3))
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(polynomials(2), polynomials(2))
    def test_commutativity_and_units(self, p, q):
        assert p * q == q * p
        assert p + q == q + p
        assert p * Polynomial.constant(2, 1) == p
        assert p + Polynomial.zero(2) == p
        assert p - p == Polynomial.zero(2)


def exact_polynomials(n, max_terms=4):
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    coeff = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
    )
    return st.dictionaries(monomial, coeff, max_size=max_terms).map(
        lambda terms: Polynomial(n, terms)
    )


def assert_canonical(r):
    """r is what the validating constructor would build from its own terms:
    same terms, same coefficient types, no stored zero, no integral Fraction."""
    again = Polynomial(r.n, dict(r.terms))
    assert r.terms == again.terms
    assert [(m, type(c)) for m, c in r.terms.items()] == \
        [(m, type(c)) for m, c in again.terms.items()]
    for m, c in r.terms.items():
        assert len(m) == r.n and c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestTrustedPath:
    """Arithmetic builds its results without re-validating them, so every
    result must already be canonical."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(exact_polynomials(3), exact_polynomials(3),
           st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)),
           st.permutations((1, 2, 3)))
    def test_results_are_canonical(self, p, q, scalar, sigma):
        for r in (p + q, p - q, p * q, -p, p * scalar, scalar * p, p + scalar,
                  p - scalar, scalar - p, p.permute_variables(sigma)):
            assert_canonical(r)
        for delta in (1, -1, Fraction(1, 2)):
            assert_canonical(p.shift_variables(delta))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(exact_polynomials(3, max_terms=5),
           st.lists(st.fractions(-5, 5, max_denominator=5), min_size=3, max_size=3),
           st.sampled_from((1, -1, Fraction(1, 2))))
    def test_shift_agrees_with_evaluation(self, p, x, delta):
        assert p.shift_variables(delta).evaluate(x) == p.evaluate([xi + delta for xi in x])


class TestConfluence:
    def test_normal_form_is_reduction_path_independent(self):
        cases = 0
        for rational in (False, True):
            for parts in ((2, 1), (2, 1, 1), (2, 2)):
                lam = Partition(parts)
                gb = buchberger(k_tanisaki_generators(lam, "v"))
                n = lam.n
                gen = random.Random(42 + n)
                for trial in range(40):
                    p = random_polynomial(gen, n, max_terms=6, max_exp=4, rational=rational)
                    baseline = normal_form(p, gb)
                    for replay in range(3):
                        chooser = random.Random(1000 * trial + replay)
                        assert normal_form(p, gb, rng=chooser) == baseline
                        cases += 1
        assert cases >= 100


class TestNormalFormRemainder:
    def test_rational_remainder_is_exact(self):
        bases = [
            buchberger(k_tanisaki_generators(Partition(parts), "u"))
            for parts in ((2, 1), (2, 1, 1), (2, 2))
        ]
        # leading coefficients 2 and 3 once cleared of denominators
        bases.append(buchberger([
            Polynomial(2, {(1, 0): 2, (0, 1): -1}),
            Polynomial(2, {(0, 2): 1, (0, 0): -3}),
        ]))
        bases.append(buchberger([
            Polynomial(3, {(1, 0, 0): 3, (0, 1, 0): -1, (0, 0, 0): 1}),
            Polynomial(3, {(0, 2, 0): 2, (0, 0, 1): -1}),
            Polynomial(3, {(0, 0, 2): 1, (0, 0, 0): -5}),
        ]))
        gen = random.Random(23)
        cases = 0
        for gb in bases:
            lms = gb.leading_monomials()
            for _ in range(25):
                p = random_polynomial(gen, gb.n, max_terms=6, max_exp=4, rational=True)
                c = Fraction(gen.choice((-1, 1)) * gen.randint(1, 9), gen.randint(1, 9))
                nf = normal_form(p, gb)
                assert normal_form(p - nf, gb).is_zero()
                assert normal_form(p * c, gb) == nf * c
                assert not any(
                    all(a <= b for a, b in zip(lm, m)) for lm in lms for m in nf.terms
                )
                cases += 1
        assert cases >= 100


class TestLambdaMultiplicativity:
    def test_series_of_sum_is_product_of_series(self):
        gen = random.Random(5)
        cases = 0
        while cases < 110:
            n = gen.randint(1, 4)
            lines_x = tuple(gen.randint(1, n) for _ in range(gen.randint(0, 3)))
            lines_y = tuple(gen.randint(1, n) for _ in range(gen.randint(0, 3)))
            sx, sy = gen.randint(-3, 3), gen.randint(-3, 3)
            trunc = gen.randint(1, 4)
            x = VirtualClass(n, lines_x, sx)
            y = VirtualClass(n, lines_y, sy)
            both = VirtualClass(n, tuple(sorted(lines_x + lines_y)), sx + sy)
            a = lambda_series(x, trunc)
            b = lambda_series(y, trunc)
            c = lambda_series(both, trunc)
            for d in range(trunc + 1):
                conv = Polynomial.zero(n)
                for k in range(d + 1):
                    conv = conv + a[k] * b[d - k]
                assert conv == c[d]
                cases += 1


class TestGammaLambdaIdentity:
    def test_shift_form_equals_binomial_expansion(self):
        gen = random.Random(11)
        for _ in range(120):
            n = gen.randint(1, 4)
            lines = tuple(gen.randint(1, n) for _ in range(gen.randint(0, 4)))
            x = VirtualClass(n, lines, gen.randint(-4, 3))
            d = gen.randint(1, 4)
            lhs = lambda_series(x.shifted(d - 1), d)[d]
            series = lambda_series(x, d)
            rhs = Polynomial.zero(n)
            for k in range(1, d + 1):
                w = binomial(d - 1, k - 1)
                if w:
                    rhs = rhs + series[k] * w
            assert lhs == rhs
            assert gamma_op(x, d) == rhs


class TestSnStability:
    def test_permuted_generators_stay_generators_and_in_ideal(self):
        gen = random.Random(17)
        pool = []
        for n in (3, 4):
            for lam in enumerate_partitions(n):
                pool.append(lam)
        cases = 0
        while cases < 110:
            lam = pool[gen.randrange(len(pool))]
            n = lam.n
            flavor = gen.choice(("cohomology", "ktheory"))
            if flavor == "cohomology":
                pres = tanisaki_generators(lam)
            else:
                pres = k_tanisaki_generators(lam, "v")
            generators = pres.generators
            g = generators[gen.randrange(len(generators))]
            i = gen.randint(1, n - 1)
            sigma = list(range(1, n + 1))
            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
            image = g.poly.permute_variables(tuple(sigma))
            assert image in {h.poly for h in generators}
            if flavor == "ktheory":
                gb = buchberger(pres)
                assert normal_form(image, gb).is_zero()
            cases += 1


def random_integer_matrix(gen: random.Random):
    """Small integer matrix with zero rows, non-unit entries and, often,
    rows that are integer combinations of earlier rows."""
    rows, cols = gen.randint(1, 6), gen.randint(1, 6)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9)
    mat = []
    for _ in range(rows):
        kind = gen.random()
        if kind < 0.15:
            mat.append([0] * cols)
        elif kind < 0.35 and mat:
            a, b = gen.choice(mat), gen.choice(mat)
            s, t = gen.randint(-3, 3), gen.randint(-3, 3)
            mat.append([s * x + t * y for x, y in zip(a, b)])
        else:
            mat.append([gen.choice(entries) for _ in range(cols)])
    return mat


class TestUnitPivotKernel:
    def test_sparse_kernels_match_dense_references(self):
        gen = random.Random(31)
        for _ in range(200):
            mat = random_integer_matrix(gen)
            rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
            assert _invariant_factors_sparse(rows) == smith_normal_form(mat), mat
