import pytest

from tanisaki import cli, lambda_ring
from tanisaki.groebner import buchberger, normal_form
from tanisaki.ideals import h_polynomial, k_tanisaki_generators, truncation_certificate
from tanisaki.lambda_ring import (
    VirtualClass,
    _lambda_coefficient,
    equivalent_lambda_relations,
    gamma_membership,
    gamma_op,
    lambda_series,
    verify_gamma_relations,
)
from tanisaki.partitions import Partition, enumerate_partitions, enumerate_subsets
from tanisaki.polynomial import Polynomial, binomial

from conftest import variables


def kbasis(lam):
    return buchberger(k_tanisaki_generators(lam, "v"))


class TestLambdaSeries:
    def test_single_line_bundle(self):
        series = lambda_series(VirtualClass(2, (1,)), 3)
        assert [p.render("u") for p in series] == ["1", "u1", "0", "0"]

    def test_trivial_of_positive_rank(self):
        k = 4
        series = lambda_series(VirtualClass(1, (), k), 6)
        assert [p.augmentation() for p in series] == [binomial(k, d) for d in range(7)]
        assert all(p.degree() <= 0 for p in series)

    def test_virtual_pair_minus_one(self):
        series = lambda_series(VirtualClass(2, (1, 2), -1), 3)
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
        got = lambda_series(VirtualClass(n, (1, 2), -1), trunc)
        assert got == expected

    def test_multiplicativity(self, rng):
        for _ in range(60):
            n = rng.randint(1, 4)
            lines = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
            other = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3)))
            s1, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
            trunc = 4
            x = VirtualClass(n, lines, s1)
            y = VirtualClass(n, other, s2)
            xy = VirtualClass(n, tuple(sorted(lines + other)), s1 + s2)
            a, b = lambda_series(x, trunc), lambda_series(y, trunc)
            c = lambda_series(xy, trunc)
            for d in range(trunc + 1):
                conv = Polynomial.zero(n)
                for k in range(d + 1):
                    conv = conv + a[k] * b[d - k]
                assert conv == c[d]


    def test_line_product_expanded_once_per_subset(self, capsys):
        # the 7 nonempty subsets of {1, 2, 3}, shared by the three partitions of 3
        lambda_ring._line_product.cache_clear()
        assert cli.main(["verify", "--n", "3", "--suite", "gamma", "--suite", "lambda"]) == 0
        capsys.readouterr()
        info = lambda_ring._line_product.cache_info()
        assert info.misses == 7 and info.currsize == 7
        assert info.hits > 0


class TestGammaOp:
    def test_gamma_zero_is_one(self):
        assert gamma_op(VirtualClass(2, (1, 2), -2), 0) == Polynomial.constant(2, 1)

    def test_gamma_one_is_identity(self):
        x = VirtualClass(3, (1, 3), -2)
        assert gamma_op(x, 1) == x.as_polynomial()

    def test_gamma_of_zero_class(self):
        zero = VirtualClass(2, (), 0)
        for d in (1, 2, 3):
            assert gamma_op(zero, d).is_zero()

    def test_line_bundle_rank_vanishing(self):
        assert gamma_op(VirtualClass(1, (1,), -1), 2).is_zero()


class TestRelationSweeps:
    def test_point_partition(self):
        lam = Partition((3,))
        rep = verify_gamma_relations(lam, kbasis(lam))
        assert rep.ok
        assert ((1,), 1, True) in rep.rows

    def test_hook_pair_relation(self):
        lam = Partition((2, 1))
        gb = kbasis(lam)
        poly = gamma_op(VirtualClass(3, (1, 2), -2), 2)
        u1, u2, _ = variables(3)
        assert poly == u1 * u2 - u1 - u2 + 1
        assert normal_form(poly.shift_variables(1), gb).is_zero()

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
            series = lambda_series(VirtualClass(3, subset, -q), s + 2)
            for d in range(1, s + 3):
                assert series[d] == h_polynomial(subset, d, q, 3)

    def test_membership_helper(self):
        lam = Partition((3,))
        gb = kbasis(lam)
        poly, nf, vanished = gamma_membership(lam, gb, (1,), 1)
        assert poly == variables(3)[0] - 1
        assert vanished and nf.is_zero()

    def test_full_subset_relations_follow_from_flag_presentation(self):
        # s = n forces q = n: the relations must already die modulo
        # the symmetric-function presentation e_k(u) = C(n, k)
        from tanisaki.groebner import buchberger
        from tanisaki.polynomial import elementary_symmetric, binomial as binom

        n = 3
        flag_gens = [
            elementary_symmetric(n, k, tuple(range(1, n + 1))) - binom(n, k)
            for k in range(1, n + 1)
        ]
        gb = buchberger(flag_gens)
        for d in (1, 2, 3):
            h = h_polynomial(tuple(range(1, n + 1)), d, n, n)
            assert normal_form(h, gb).is_zero()


class TestRelationsInV:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_v_built_relations_equal_shifted_u_relations(self, n):
        # oracle: the relation built in u, rewritten by v_j = u_j - 1, over
        # every row of both sweeps, the d = s + 1 and s + 2 overhang included,
        # and every truncation certificate with the same combination
        for lam in enumerate_partitions(n):
            dual = lam.dual()
            for s in range(1, n + 1):
                q = dual.p_function(s)
                for subset in enumerate_subsets(n, s):
                    gamma_class = VirtualClass(n, subset, -s)
                    lambda_class = VirtualClass(n, subset, -q)
                    for d in range(s + 1 - q, s + 3):
                        assert gamma_op(gamma_class, d, "v") == gamma_op(
                            gamma_class, d).shift_variables(1), (lam, subset, d)
                        assert _lambda_coefficient(lambda_class, d, "v") == _lambda_coefficient(
                            lambda_class, d).shift_variables(1), (lam, subset, d)
                    certs_u = truncation_certificate(lam, subset)
                    certs_v = truncation_certificate(lam, subset, "v")
                    assert [c["m"] for c in certs_v] == [c["m"] for c in certs_u] == [s + 1, s + 2]
                    for cu, cv in zip(certs_u, certs_v):
                        assert cv["h"] == cu["h"].shift_variables(1), (lam, subset, cu["m"])
                        assert cv["combination"] == cu["combination"], (lam, subset, cu["m"])

    def test_sweeps_shift_no_variables(self, capsys, monkeypatch):
        shifts = []
        shift_variables = Polynomial.shift_variables

        def counting(self, delta):
            shifts.append(delta)
            return shift_variables(self, delta)

        monkeypatch.setattr(Polynomial, "shift_variables", counting)
        code = cli.main(["verify", "--n", "3", "--suite", "gamma", "--suite", "lambda"])
        capsys.readouterr()
        assert code == 0 and shifts == []
        code = cli.main(["verify", "--n", "3", "--suite", "truncation"])
        capsys.readouterr()
        assert code == 0 and shifts == []
        code = cli.main(["gamma", "--partition", "2,1", "--subset", "1,2", "--d", "2"])
        capsys.readouterr()
        assert code == 0 and shifts == []
