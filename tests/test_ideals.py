from math import comb

import pytest

from tanisaki.ideals import (
    h_polynomial,
    k_tanisaki_generators,
    tanisaki_generators,
    truncation_certificate,
)
from tanisaki.partitions import Partition, PartitionError, enumerate_partitions, enumerate_subsets
from tanisaki.polynomial import Polynomial, elementary_symmetric

from conftest import variables


class TestCohomologyGenerators:
    def test_one_row_partition_contains_all_variables(self):
        for n in (2, 3, 4):
            pres = tanisaki_generators(Partition((n,)))
            polys = set(pres.polynomials())
            for j in range(1, n + 1):
                assert Polynomial.variable(n, j) in polys

    def test_hook_2_1(self):
        pres = tanisaki_generators(Partition((2, 1)))
        y1, y2, y3 = variables(3)
        expected = {
            y1 * y2, y1 * y3, y2 * y3,
            y1 + y2 + y3,
            y1 * y2 + y1 * y3 + y2 * y3,
            y1 * y2 * y3,
        }
        assert set(pres.polynomials()) == expected

    def test_full_flag_reduces_to_symmetric_functions(self):
        # for the column partition only s=n contributes: e_1..e_n of all vars
        n = 4
        pres = tanisaki_generators(Partition((1,) * n))
        assert set(pres.polynomials()) == {
            elementary_symmetric(n, k, tuple(range(1, n + 1))) for k in range(1, n + 1)
        }

    def test_all_generators_homogeneous_with_valid_inequality(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                pres = tanisaki_generators(lam)
                for g in pres.generators:
                    s = len(g.subset)
                    assert g.d >= s + 1 - g.q
                    assert g.d <= s
                    assert g.poly.graded_component(g.d) == g.poly
                    assert g.poly == elementary_symmetric(n, g.d, g.subset)

    def test_generator_count_formula(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                dual = lam.dual()
                pres = tanisaki_generators(lam)
                expected = 0
                for s in range(1, n + 1):
                    q = dual.p_function(s)
                    expected += comb(n, s) * (s - max(0, s - q))
                assert len(pres.generators) == expected


class TestNoRepeatedGenerators:
    def test_generators_pairwise_distinct(self):
        # distinct (subset, d) pairs have distinct top-degree forms e_d(subset)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u"),
                             k_tanisaki_generators(lam, "v")):
                    polys = pres.polynomials()
                    assert len(set(polys)) == len(polys), (lam, pres.convention)


class TestHPolynomial:
    def test_pair_with_one_trivial_summand(self):
        u1, u2 = variables(2)
        assert h_polynomial((1, 2), 2, 1, 2) == u1 * u2 - u1 - u2 + 1

    def test_degree_one_full_triple(self):
        u1, u2, u3 = variables(3)
        assert h_polynomial((1, 2, 3), 1, 3, 3) == u1 + u2 + u3 - 3

    def test_degree_three_full_triple(self):
        h3 = h_polynomial((1, 2, 3), 3, 3, 3)
        e = lambda k: elementary_symmetric(3, k, (1, 2, 3))
        assert h3 == e(3) - 3 * e(2) + 6 * e(1) - 10
        # consistency with the full-flag relations e_k -> C(3, k)
        assert h3.evaluate([1, 1, 1]) == comb(3, 3) - 3 * comb(3, 2) + 6 * comb(3, 1) - 10 == 0

    def test_augmentation_vanishes_in_claimed_range(self):
        for n in range(1, 6):
            for s in range(1, n + 1):
                subset = tuple(range(1, s + 1))
                for q in range(0, s + 1):
                    for d in range(max(1, s + 1 - q), s + 3):
                        h = h_polynomial(subset, d, q, n)
                        assert h.augmentation() == 0
                        assert h.graded_component(d) == elementary_symmetric(n, d, subset)

    def test_series_coefficient_identity(self):
        # h_d is the t^d coefficient of prod(1+u_i t) * (1+t)^(-q)
        from tanisaki.lambda_ring import VirtualClass, lambda_series

        for n in range(1, 6):
            for s in range(1, n + 1):
                for subset in enumerate_subsets(n, s):
                    for q in range(0, s + 1):
                        series = lambda_series(VirtualClass(n, subset, -q), s + 2)
                        for d in range(1, s + 3):
                            assert series[d] == h_polynomial(subset, d, q, n)


class TestKGenerators:
    def test_hook_u_convention(self):
        pres = k_tanisaki_generators(Partition((2, 1)), "u")
        u1, u2, u3 = variables(3)
        expected = {
            u1 * u2 - u1 - u2 + 1, u1 * u3 - u1 - u3 + 1,
            u2 * u3 - u2 - u3 + 1,
            u1 + u2 + u3 - 3,
            u1 * u2 + u1 * u3 + u2 * u3 - 3 * u1 - 3 * u2 - 3 * u3 + 6,
            u1 * u2 * u3 - 3 * u1 * u2 - 3 * u1 * u3 - 3 * u2 * u3
            + 6 * u1 + 6 * u2 + 6 * u3 - 10,
        }
        assert set(pres.polynomials()) == expected

    def test_hook_v_convention_pairs(self):
        pres = k_tanisaki_generators(Partition((2, 1)), "v")
        pairs = [g.poly for g in pres.generators if len(g.subset) == 2]
        v1, v2, v3 = variables(3)
        assert set(pairs) == {v1 * v2, v1 * v3, v2 * v3}

    def test_one_row_contains_unit_shifted_variables(self):
        n = 3
        pres = k_tanisaki_generators(Partition((n,)), "u")
        polys = set(pres.polynomials())
        for j in range(1, n + 1):
            assert Polynomial.variable(n, j) - 1 in polys

    def test_convention_shift_round_trip(self):
        # the shift route checks the closed-form v generators, their order
        # and their deduplication
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                pres_u = k_tanisaki_generators(lam, "u")
                pres_v = k_tanisaki_generators(lam, "v")
                assert [p.shift_variables(1) for p in pres_u.polynomials()] == pres_v.polynomials()
                assert [p.shift_variables(-1) for p in pres_v.polynomials()] == pres_u.polynomials()

    def test_generator_invariants(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                pres = k_tanisaki_generators(lam, "u")
                seen = set()
                for g in pres.generators:
                    s = len(g.subset)
                    assert g.d >= s + 1 - g.q
                    assert g.poly.augmentation() == 0
                    assert g.poly.graded_component(g.d) == elementary_symmetric(n, g.d, g.subset)
                    assert g.poly not in seen
                    seen.add(g.poly)


class TestStability:
    def test_adjacent_transpositions_permute_generators(self):
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                for flavor_pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u")):
                    pool = set(flavor_pres.polynomials())
                    for g in flavor_pres.generators:
                        for i in range(1, n):
                            sigma = list(range(1, n + 1))
                            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
                            assert g.poly.permute_variables(tuple(sigma)) in pool


class TestTruncationCertificate:
    def test_q_zero_collapses(self):
        lam = Partition((1, 1, 1))  # q = 0 for every proper subset
        for convention in ("u", "v"):
            certs = truncation_certificate(lam, (1, 2), convention)
            assert all(c["h"].is_zero() and c["combination"] == {} for c in certs)
        # no kept h_d is built here, so the convention is checked up front
        with pytest.raises(PartitionError):
            truncation_certificate(lam, (1, 2), "w")

    def test_pair_with_q_one(self):
        lam = Partition((2, 1))
        certs = truncation_certificate(lam, (1, 2))
        h3 = certs[0]
        assert h3["m"] == 3
        assert h3["combination"] == {2: -1}
        assert h3["h"] == -h_polynomial((1, 2), 2, 1, 3)

    def test_full_subset_degenerate(self):
        lam = Partition((2, 1))  # q = s = 3 on the full subset
        for cert in truncation_certificate(lam, (1, 2, 3)):
            assert cert["h"] == h_polynomial((1, 2, 3), cert["m"], 3, 3)
            assert set(cert["combination"]) <= {1, 2, 3}

    def test_certificates_match_formula_everywhere(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                for s in range(1, n + 1):
                    for subset in enumerate_subsets(n, s):
                        truncation_certificate(lam, subset)  # self-verifying

