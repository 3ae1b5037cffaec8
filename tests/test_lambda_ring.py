import json

import pytest

from tanisaki import cli
from tanisaki.groebner import buchberger, normal_form
from tanisaki.ideals import (
    k_tanisaki_generators,
    lambda_coefficient,
    truncation_certificate,
)
from tanisaki.lambda_ring import equivalent_lambda_relations, gamma_op, verify_gamma_relations
from tanisaki.partitions import Partition, enumerate_partitions, enumerate_subsets
from tanisaki.polynomial import Polynomial, binomial

from conftest import (
    augmentation,
    elementary_symmetric,
    kbasis,
    lambda_coefficients,
    series_by_multiplication,
    shift_variables,
    variables,
)


class TestLambdaSeries:
    def test_single_line_bundle(self):
        series = lambda_coefficients(2, (1,), 0, 3)
        assert [p.render("u") for p in series] == ["1", "u1", "0", "0"]

    def test_trivial_of_positive_rank(self):
        k = 4
        series = lambda_coefficients(1, (), k, 6)
        assert [augmentation(p) for p in series] == [binomial(k, d) for d in range(7)]
        assert all(p.degree() <= 0 for p in series)

    def test_virtual_pair_minus_one(self):
        series = lambda_coefficients(2, (1, 2), -1, 3)
        u1, u2 = variables(2)
        assert series[0] == Polynomial.constant(2, 1)
        assert series[1] == u1 + u2 - 1
        assert series[2] == u1 * u2 - u1 - u2 + 1
        assert series[3] == -u1 * u2 + u1 + u2 - 1

    def test_series_oracle_by_direct_convolution(self):
        # multiply (1+u1 t)(1+u2 t) by the alternating geometric series by hand
        n = 2
        u1, u2 = Polynomial.variable(n, 1), Polynomial.variable(n, 2)
        prod = [Polynomial.constant(n, 1), u1 + u2, u1 * u2]
        trunc = 4
        expected = []
        for d in range(trunc + 1):
            acc = Polynomial.zero(n)
            for k, pk in enumerate(prod):
                if k <= d:
                    acc = acc + pk * ((-1) ** (d - k))
                    # (1+t)^(-1) has coefficients (-1)^(d-k)
            expected.append(acc)
        got = lambda_coefficients(n, (1, 2), -1, trunc)
        assert got == expected

    def test_multiplicativity(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            lines = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
            other = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
            s1, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
            trunc = 4
            a = lambda_coefficients(n, lines, s1, trunc)
            b = lambda_coefficients(n, other, s2, trunc)
            c = lambda_coefficients(n, lines + other, s1 + s2, trunc)
            for d in range(trunc + 1):
                conv = Polynomial.zero(n)
                for k in range(d + 1):
                    conv = conv + a[k] * b[d - k]
                assert conv == c[d]


class TestGammaOp:
    def test_gamma_zero_is_one(self):
        assert gamma_op(2, (1, 2), -2, 0) == Polynomial.constant(2, 1)

    def test_gamma_one_is_identity(self):
        u1, _, u3 = variables(3)
        assert gamma_op(3, (1, 3), -2, 1) == u1 + u3 - 2

    def test_gamma_of_zero_class(self):
        for d in (1, 2, 3):
            assert gamma_op(2, (), 0, d).is_zero()

    def test_line_bundle_rank_vanishing(self):
        assert gamma_op(1, (1,), -1, 2).is_zero()


class TestRelationSweeps:
    def test_point_partition(self):
        lam = Partition((3,))
        rep = verify_gamma_relations(lam, kbasis(lam))
        assert rep.ok
        assert ((1,), 1, True) in rep.rows

    def test_hook_pair_relation(self):
        lam = Partition((2, 1))
        gb = kbasis(lam)
        poly = gamma_op(3, (1, 2), -2, 2)
        u1, u2, _ = variables(3)
        assert poly == u1 * u2 - u1 - u2 + 1
        assert normal_form(shift_variables(poly, 1), gb).is_zero()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sweeps_and_agreement(self, n):
        for lam in enumerate_partitions(n):
            gb = kbasis(lam)
            g = verify_gamma_relations(lam, gb)
            l = equivalent_lambda_relations(lam, gb)
            assert g.ok and l.ok
            assert g.ok == l.ok
            assert len(g.rows) == len(l.rows)

    def test_lambda_coefficients_reproduce_h(self):
        lam = Partition((2, 1))
        dual = lam.dual()
        for s in (1, 2, 3):
            q = dual.p_function(s)
            subset = tuple(range(1, s + 1))
            series = series_by_multiplication(3, subset, -q, s + 2)
            assert lambda_coefficients(3, subset, -q, s + 2) == series
            # the generators h_d of this subset are its kept coefficients
            gens = [g for g in k_tanisaki_generators(lam).generators if g.subset == subset]
            assert [g.d for g in gens] == list(range(max(1, s + 1 - q), s + 1))
            for g in gens:
                assert g.q == q and g.poly == series[g.d]

    def test_membership_helper(self, capsys):
        # the gamma command reduces gamma^d(sum [L_i] - s) on its own K-basis
        assert cli.main(["gamma", "--partition", "3", "--subset", "1", "--d", "1"]) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        assert result["gamma_polynomial"] == (variables(3)[0] - 1).render("u")
        assert result["in_ideal"] is True

    def test_full_subset_relations_follow_from_flag_presentation(self):
        # s = n forces q = n: the relations must already die modulo
        # the symmetric-function presentation e_k(u) = C(n, k)
        from tanisaki.groebner import buchberger
        from tanisaki.polynomial import binomial as binom

        n = 3
        flag_gens = [
            elementary_symmetric(n, k, tuple(range(1, n + 1))) - binom(n, k)
            for k in range(1, n + 1)
        ]
        gb = buchberger(flag_gens)
        for d in (1, 2, 3):
            h = lambda_coefficient(n, tuple(range(1, n + 1)), -n, d)
            assert normal_form(h, gb).is_zero()


class TestGammaCommandAgreesWithSweep:
    @pytest.mark.parametrize("convention", ["u", "v"])
    def test_every_sweep_row(self, capsys, convention):
        # the gamma command and the gamma sweep share one gamma^d formula and,
        # in either convention, the K(v) basis; the oracle expands
        # gamma^d(x) = sum_k C(d-1, k-1) lambda^k(x) over coefficients found
        # by series multiplication, not lambda_coefficient
        for n in range(1, 5):
            for lam in enumerate_partitions(n):
                sweep = verify_gamma_relations(
                    lam, buchberger(k_tanisaki_generators(lam, "v")))
                part = ",".join(map(str, lam.parts))
                for subset, d, vanished in sweep.rows:
                    code = cli.main(["gamma", "--partition", part, "--convention", convention,
                                     "--subset", ",".join(map(str, subset)), "--d", str(d)])
                    result = json.loads(capsys.readouterr().out)["results"][0]
                    series = series_by_multiplication(n, subset, -len(subset), d)
                    expected = Polynomial.zero(n)
                    for k in range(1, d + 1):
                        expected = expected + series[k] * binomial(d - 1, k - 1)
                    assert result["in_ideal"] is vanished, (lam, subset, d)
                    assert result["gamma_polynomial"] == expected.render("u"), (lam, subset, d)
                    assert code == (0 if result["ok"] else 1)


class TestRelationsInV:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_v_built_relations_equal_shifted_u_relations(self, n):
        # oracle: the relation built in u, rewritten by v_j = u_j - 1, over
        # every row of both sweeps, the d = s + 1 and s + 2 overhang included,
        # and every truncation certificate, whose combination also gives the
        # overhang relation from the kept ones built in u
        for lam in enumerate_partitions(n):
            dual = lam.dual()
            for s in range(1, n + 1):
                q = dual.p_function(s)
                for subset in enumerate_subsets(n, s):
                    for d in range(s + 1 - q, s + 3):
                        # the gamma row's shift d - 1 - s, then the lambda row's -q
                        for shift in (d - 1 - s, -q):
                            assert lambda_coefficient(n, subset, shift, d, "v") == (
                                shift_variables(lambda_coefficient(n, subset, shift, d), 1)
                            ), (lam, subset, d, shift)
                    certs = truncation_certificate(lam, subset)
                    assert [c["m"] for c in certs] == [s + 1, s + 2]
                    for cert in certs:
                        in_u = Polynomial.zero(n)
                        for k, c in cert["combination"].items():
                            in_u = in_u + lambda_coefficient(n, subset, -q, k) * c
                        assert in_u == lambda_coefficient(n, subset, -q, cert["m"]), (
                            lam, subset, cert["m"])
                        assert cert["h"] == shift_variables(in_u, 1), (lam, subset, cert["m"])
