from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from tanisaki.ideals import (
    k_certificate,
    k_tanisaki_generators,
    lambda_coefficient,
    tanisaki_generators,
    truncation_certificate,
)
from tanisaki.partitions import Partition, PartitionError, enumerate_partitions, enumerate_subsets
from tanisaki.polynomial import Polynomial

from conftest import (
    augmentation,
    elementary_symmetric,
    evaluate,
    graded_component,
    series_by_multiplication,
    shift_variables,
    variables,
)


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
                    assert graded_component(g.poly, g.d) == g.poly
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


class TestLambdaCoefficient:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_the_multiplied_out_series(self, n):
        # every line multiset of size <= 3 and every subset of 1..n (the
        # sweeps build subsets of each size up to n), shifts -n-1..2, d from 0
        # through two past the line count; the v form is the u series
        # rewritten by u_j = v_j + 1
        line_sets = {lines for size in range(4)
                     for lines in combinations_with_replacement(range(1, n + 1), size)}
        line_sets |= {lines for size in range(n + 1)
                      for lines in combinations(range(1, n + 1), size)}
        for lines in sorted(line_sets):
            for shift in range(-n - 1, 3):
                series = series_by_multiplication(n, lines, shift, max(5, len(lines) + 2))
                for d, expected in enumerate(series):
                    assert lambda_coefficient(n, lines, shift, d) == expected, (
                        lines, shift, d)
                    assert lambda_coefficient(n, lines, shift, d, "v") == (
                        shift_variables(expected, 1)), (lines, shift, d)


class TestHPolynomial:
    """h_d = lambda^d(sum_{i in subset} [L_i] - q), built by lambda_coefficient."""

    def test_pair_with_one_trivial_summand(self):
        u1, u2 = variables(2)
        assert lambda_coefficient(2, (1, 2), -1, 2) == u1 * u2 - u1 - u2 + 1

    def test_degree_one_full_triple(self):
        u1, u2, u3 = variables(3)
        assert lambda_coefficient(3, (1, 2, 3), -3, 1) == u1 + u2 + u3 - 3

    def test_degree_three_full_triple(self):
        h3 = lambda_coefficient(3, (1, 2, 3), -3, 3)
        e = lambda k: elementary_symmetric(3, k, (1, 2, 3))
        assert h3 == e(3) - 3 * e(2) + 6 * e(1) - 10
        # consistency with the full-flag relations e_k -> C(3, k)
        assert evaluate(h3, [1, 1, 1]) == comb(3, 3) - 3 * comb(3, 2) + 6 * comb(3, 1) - 10 == 0

    def test_augmentation_vanishes_in_claimed_range(self):
        for n in range(1, 6):
            for s in range(1, n + 1):
                subset = tuple(range(1, s + 1))
                for q in range(0, s + 1):
                    for d in range(max(1, s + 1 - q), s + 3):
                        h = lambda_coefficient(n, subset, -q, d)
                        assert augmentation(h) == 0
                        assert graded_component(h, d) == elementary_symmetric(n, d, subset)

    def test_series_coefficient_identity(self):
        # h_d is the t^d coefficient of prod(1+u_i t) * (1+t)^(-q), in u and,
        # rewritten by u_j = v_j + 1, in v
        for n in range(1, 6):
            for s in range(1, n + 1):
                for subset in enumerate_subsets(n, s):
                    for q in range(0, s + 1):
                        series = series_by_multiplication(n, subset, -q, s + 2)
                        for d in range(1, s + 3):
                            assert lambda_coefficient(n, subset, -q, d) == series[d]
                            assert lambda_coefficient(n, subset, -q, d, "v") == (
                                shift_variables(series[d], 1))


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
                assert [shift_variables(p, 1) for p in pres_u.polynomials()] == pres_v.polynomials()
                assert [shift_variables(p, -1) for p in pres_v.polynomials()] == pres_u.polynomials()
        # no generator is built before the convention is checked
        with pytest.raises(PartitionError):
            k_tanisaki_generators(Partition((1, 1, 1)), "w")

    def test_generator_invariants(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                pres = k_tanisaki_generators(lam, "u")
                seen = set()
                for g in pres.generators:
                    s = len(g.subset)
                    assert g.d >= s + 1 - g.q
                    assert augmentation(g.poly) == 0
                    assert graded_component(g.poly, g.d) == elementary_symmetric(n, g.d, g.subset)
                    assert g.poly not in seen
                    seen.add(g.poly)


class TestVCertificate:
    def test_holds_for_every_partition_up_to_seven(self):
        for n in range(1, 8):
            for lam in enumerate_partitions(n):
                assert k_certificate(tanisaki_generators(lam), k_tanisaki_generators(lam, "v")) is None

    def test_holds_in_u_for_every_partition_up_to_six(self):
        # a u record is compared once u_i = v_i + 1 is substituted
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                assert k_certificate(tanisaki_generators(lam), k_tanisaki_generators(lam, "u")) is None

    def test_translated_u_presentation_is_refused(self):
        # the v-generators read as u-polynomials: the ideal translated by
        # u_i -> u_i + 1.  For (2,1) the first record, e_2(u_1, u_2) = u1*u2,
        # is (v1 + 1)*(v2 + 1) in v, not v1*v2
        lam = Partition((2, 1))
        translated = k_tanisaki_generators(lam, "v")._replace(convention="u")
        assert k_certificate(tanisaki_generators(lam), translated) == ((1, 2), 2)
        # relabelled v, the same polynomials pass: the label alone decides the variables
        assert k_certificate(tanisaki_generators(lam),
                             translated._replace(convention="v")) is None

    def test_translated_presentation_is_refused(self):
        # the u-generators read as v-polynomials: the ideal translated by
        # v_i -> v_i - 1.  For (2,1) the first record, h_2 of {1, 2}, is
        # v1*v2 - v1 - v2 + 1, not e_2(v_1, v_2) = v1*v2
        lam = Partition((2, 1))
        translated = k_tanisaki_generators(lam, "u")._replace(convention="v")
        assert k_certificate(tanisaki_generators(lam), translated) == ((1, 2), 2)

    def test_every_subset_is_checked(self):
        # one wrong polynomial on the last subset of each size is found there
        lam = Partition((3, 2, 1))
        coh, kv = tanisaki_generators(lam), k_tanisaki_generators(lam, "v")
        for s in {len(g.subset) for g in kv.generators}:
            last = max(i for i, g in enumerate(kv.generators) if len(g.subset) == s)
            gens = list(kv.generators)
            gens[last] = gens[last]._replace(poly=gens[last].poly * 2)
            g = gens[last]
            assert k_certificate(coh, kv._replace(generators=tuple(gens))) == (g.subset, g.d)

    def test_missing_records_fail_at_their_subset_and_degree(self):
        lam = Partition((2, 1))
        coh, kv = tanisaki_generators(lam), k_tanisaki_generators(lam, "v")
        # a K record whose cohomology record (S, k) is missing
        g = kv.generators[-1]
        dropped = tuple(c for c in coh.generators if (c.subset, c.d) != (g.subset, g.d))
        assert k_certificate(coh._replace(generators=dropped), kv) == (g.subset, g.d)
        # a cohomology record with no K record: the K ideal could be smaller
        assert k_certificate(coh, kv._replace(generators=kv.generators[:-1])) == (g.subset, g.d)
        # a K record outside its kept window
        low = g._replace(d=g.d - g.q)
        assert k_certificate(coh, kv._replace(generators=kv.generators + (low,))) == (
            low.subset, low.d)


class TestStability:
    def test_adjacent_transpositions_permute_generators(self):
        for n in range(2, 6):
            for lam in enumerate_partitions(n):
                for flavor_pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u"),
                                    k_tanisaki_generators(lam, "v")):
                    pool = set(flavor_pres.polynomials())
                    for g in flavor_pres.generators:
                        for i in range(1, n):
                            sigma = list(range(1, n + 1))
                            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
                            assert g.poly.permute_variables(tuple(sigma)) in pool


class TestTruncationCertificate:
    def test_q_zero_collapses(self):
        lam = Partition((1, 1, 1))  # q = 0 for every proper subset
        certs = truncation_certificate(lam, (1, 2))
        assert all(c["h"].is_zero() and c["combination"] == {} for c in certs)

    def test_pair_with_q_one(self):
        lam = Partition((2, 1))
        certs = truncation_certificate(lam, (1, 2))
        h3 = certs[0]
        assert h3["m"] == 3
        assert h3["combination"] == {2: -1}
        assert h3["h"] == -lambda_coefficient(3, (1, 2), -1, 2, "v")

    def test_full_subset_degenerate(self):
        lam = Partition((2, 1))  # q = s = 3 on the full subset
        for cert in truncation_certificate(lam, (1, 2, 3)):
            assert cert["h"] == lambda_coefficient(3, (1, 2, 3), -3, cert["m"], "v")
            assert set(cert["combination"]) <= {1, 2, 3}

    def test_certificates_match_formula_everywhere(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                for s in range(1, n + 1):
                    for subset in enumerate_subsets(n, s):
                        truncation_certificate(lam, subset)  # self-verifying

