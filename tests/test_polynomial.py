import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from tanisaki.polynomial import (
    Polynomial,
    PolynomialError,
    binomial,
    elementary_symmetric,
)

from conftest import random_point, random_polynomial


def V(n, j):
    return Polynomial.variable(n, j)


class TestArithmetic:
    def test_difference_of_squares(self):
        u1 = V(1, 1)
        assert (u1 + 1) * (u1 - 1) == u1 * u1 - 1

    def test_add_zero(self):
        p = V(3, 1) * V(3, 2) + 5
        assert p + Polynomial.zero(3) == p

    def test_square_of_sum(self):
        u1, u2 = V(2, 1), V(2, 2)
        assert (u1 + u2) ** 2 == u1 * u1 + 2 * u1 * u2 + u2 * u2

    def test_variable_count_mismatch(self):
        with pytest.raises(PolynomialError):
            V(2, 1) + V(3, 1)

    def test_no_stored_zeros(self):
        p = V(2, 1) - V(2, 1)
        assert p.is_zero() and p.terms == {}

    def test_coefficients_stay_exact(self):
        p = Polynomial(1, {(1,): Fraction(1, 3)})
        q = p * 3
        assert q.terms == {(1,): 1}
        assert isinstance(q.terms[(1,)], int)

    def test_inexact_operands_rejected_at_every_entry(self):
        p = V(2, 1) + 1
        for op in (lambda: p + 0.5, lambda: p - 0.5, lambda: 0.5 + p, lambda: 0.5 - p,
                   lambda: p * 0.5, lambda: 0.5 * p, lambda: p.shift_variables(0.5),
                   lambda: Polynomial(2, {(1, 0): 0.5}), lambda: Polynomial.constant(2, 0.5)):
            with pytest.raises(PolynomialError):
                op()
        with pytest.raises(PolynomialError):
            Polynomial(2, {(1,): 1})
        with pytest.raises(PolynomialError):
            Polynomial(2, {(1, -1): 1})
        assert Polynomial.constant(2, True).render() == "1"
        assert type(Polynomial.constant(2, True).terms[(0, 0)]) is int
        assert type((p * True).terms[(1, 0)]) is int


class TestElementarySymmetric:
    def test_e2_of_three(self):
        e2 = elementary_symmetric(3, 2, (1, 2, 3))
        y1, y2, y3 = (V(3, j) for j in (1, 2, 3))
        assert e2 == y1 * y2 + y1 * y3 + y2 * y3

    def test_top(self):
        e3 = elementary_symmetric(3, 3, (1, 2, 3))
        assert e3 == V(3, 1) * V(3, 2) * V(3, 3)

    def test_too_many_vanishes(self):
        assert elementary_symmetric(4, 3, (1, 2)).is_zero()

    def test_bad_indices_rejected(self):
        for indices in [(0, 1), (1, 4), (1, 1, 2)]:
            with pytest.raises(PolynomialError):
                elementary_symmetric(3, 2, indices)

    def test_generating_identity_all_subsets(self):
        # sum_k e_k(subset) t^k == prod (1 + y_i t), t adjoined as variable n+1
        for n in range(1, 6):
            t = V(n + 1, n + 1)
            for s in range(1, n + 1):
                for subset in combinations(range(1, n + 1), s):
                    prod = Polynomial.constant(n + 1, 1)
                    for i in subset:
                        prod = prod * (1 + V(n + 1, i) * t)
                    acc = Polynomial.zero(n + 1)
                    tk = Polynomial.constant(n + 1, 1)
                    for k in range(s + 1):
                        ek = elementary_symmetric(n, k, subset)
                        lifted = Polynomial(n + 1, {m + (0,): c for m, c in ek.terms.items()})
                        acc = acc + lifted * tk
                        tk = tk * t
                    assert acc == prod


class TestShiftVariables:
    def test_u_to_v_example(self):
        # u1*u2 - u1 - u2 + 1 written in v with u = v + 1 collapses to v1*v2
        u1, u2 = V(2, 1), V(2, 2)
        p = u1 * u2 - u1 - u2 + 1
        assert p.shift_variables(1) == u1 * u2

    def test_shift_zero_identity(self, rng):
        for _ in range(20):
            p = random_polynomial(rng, 3)
            assert p.shift_variables(0) == p

    def test_shift_round_trip(self, rng):
        for _ in range(50):
            p = random_polynomial(rng, 3)
            assert p.shift_variables(1).shift_variables(-1) == p

    def test_shift_is_ring_homomorphism(self, rng):
        for _ in range(30):
            p = random_polynomial(rng, 2)
            q = random_polynomial(rng, 2)
            assert (p * q).shift_variables(2) == p.shift_variables(2) * q.shift_variables(2)
            assert (p + q).shift_variables(-3) == p.shift_variables(-3) + q.shift_variables(-3)


class TestAugmentationAndGrading:
    def test_augmentation_of_elementary(self):
        for s, k in [(3, 1), (3, 2), (4, 2), (5, 3)]:
            subset = tuple(range(1, s + 1))
            assert elementary_symmetric(s, k, subset).augmentation() == comb(s, k)

    def test_augmentation_constant(self):
        assert Polynomial.constant(2, -7).augmentation() == -7

    def test_graded_component(self):
        y1, y2 = V(2, 1), V(2, 2)
        p = (y1 + y2) ** 2 + y1
        assert p.graded_component(2) == y1 * y1 + 2 * y1 * y2 + y2 * y2
        assert p.graded_component(1) == y1
        assert p.graded_component(5).is_zero()

    def test_h2_leading_form(self):
        # q=1 pair relation: top graded piece is the elementary symmetric
        u1, u2 = V(2, 1), V(2, 2)
        p = u1 * u2 - u1 - u2 + 1
        assert p.graded_component(2) == u1 * u2
        assert p.augmentation() == 0


class TestBinomial:
    @pytest.mark.parametrize("a,b,val", [(4, 2, 6), (3, 0, 1), (0, 0, 1), (3, 5, 0)])
    def test_small(self, a, b, val):
        assert binomial(a, b) == val

    def test_pascal_oracle(self):
        tri = [[1]]
        for r in range(1, 25):
            prev = tri[-1]
            tri.append([1] + [prev[i - 1] + prev[i] for i in range(1, r)] + [1])
        assert binomial(19, 9) == tri[19][9] == 92378

    def test_negative_upper(self):
        # series coefficients of (1+t)^(-2)
        assert [binomial(-2, k) for k in range(5)] == [1, -2, 3, -4, 5]

    def test_negative_lower_rejected(self):
        with pytest.raises(PolynomialError):
            binomial(3, -1)


class TestEvaluation:
    def test_evaluation_homomorphism(self, rng):
        for _ in range(50):
            p = random_polynomial(rng, 3, rational=True)
            q = random_polynomial(rng, 3, rational=True)
            pt = random_point(rng, 3)
            assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
            assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


class TestTextFormat:
    def test_render_style(self):
        p = 3 * V(3, 1) ** 2 * V(3, 2) - V(3, 3) + 1
        assert p.render("u") == "3*u1^2*u2 - u3 + 1"

    def test_zero(self):
        assert Polynomial.zero(2).render("y") == "0"

    def test_canonical_ordering_is_stable(self):
        # u2 + u1^2 + u1*u2, its terms inserted in two different orders
        p = Polynomial(2, {(0, 1): 1, (2, 0): 1, (1, 1): 1})
        q = Polynomial(2, {(1, 1): 1, (0, 1): 1, (2, 0): 1})
        assert list(p.terms) != list(q.terms)
        assert p.render("u") == q.render("u")
        assert hash(p) == hash(q)


class TestPermutation:
    def test_transposition(self):
        p = V(3, 1) * V(3, 3)
        assert p.permute_variables((2, 1, 3)) == V(3, 2) * V(3, 3)

    def test_identity(self, rng):
        for _ in range(10):
            p = random_polynomial(rng, 3)
            assert p.permute_variables((1, 2, 3)) == p

    def test_symmetric_invariance(self):
        e2 = elementary_symmetric(3, 2, (1, 2, 3))
        assert e2.permute_variables((3, 1, 2)) == e2
