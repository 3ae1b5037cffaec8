import pytest

from tanisaki import linalg
from tanisaki.groebner import buchberger, standard_monomials
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.linalg import (
    _invariant_factors_sparse,
    _shifted_rows,
    dim_graded_piece,
    filtration_check,
    ideal_degree_rank,
    integral_freeness_check,
    jordan_matrix,
    monomials_of_degree,
    smith_normal_form,
    verify_rank_lemma,
)
from tanisaki.partitions import Partition, enumerate_partitions

from conftest import filtration_of, freeness_of


def sparse_rank(matrix):
    """Rank by the unit-pivot route: the count of its nonzero invariant factors."""
    rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
    return len(_invariant_factors_sparse(rows))


class TestRank:
    def test_vandermonde(self):
        # determinant (2-1)(3-1)(3-2) = 2 is nonzero, so full rank
        m = [[x ** j for j in range(3)] for x in (1, 2, 3)]
        assert sparse_rank(m) == 3
        assert len(smith_normal_form(m)) == 3

    def test_rank_matches_nonzero_invariant_factors(self):
        mats = [
            [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
            [[1, 2], [2, 4]],
            [[0, 1], [1, 0]],
        ]
        assert [sparse_rank(m) for m in mats] == [3, 1, 2]
        for m in mats:
            assert sparse_rank(m) == len(smith_normal_form(m))


class TestSmithNormalForm:
    def test_diag(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]

    def test_zero(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == []

    def test_divisibility_chain(self):
        m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        factors = smith_normal_form(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

    def test_classic(self):
        assert smith_normal_form([[6, 0], [0, 10]]) == [2, 30]


class TestJordan:
    def test_hook(self):
        m = jordan_matrix(Partition((2, 1)))
        assert m == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]

    def test_single_block_rank(self):
        m = jordan_matrix(Partition((4,)))
        assert len(smith_normal_form(m)) == 3

    def test_zero_matrix(self):
        assert jordan_matrix(Partition((1, 1, 1))) == [[0] * 3 for _ in range(3)]


class TestRankLemma:
    def test_hook(self):
        rep = verify_rank_lemma(Partition((2, 1)))
        assert rep.ok
        assert [(s, p) for s, p, _ in rep.rows] == [(1, 0), (2, 1), (3, 3)]

    def test_single_row(self):
        rep = verify_rank_lemma(Partition((5,)))
        assert rep.ok
        assert [r for _, _, r in rep.rows] == [1, 2, 3, 4, 5]

    def test_large_example(self):
        rep = verify_rank_lemma(Partition((5, 4, 4, 2, 2, 2, 1)))
        assert rep.ok
        tail = {s: p for s, p, _ in rep.rows}
        assert [tail[s] for s in (16, 17, 18, 19, 20)] == [1, 4, 7, 13, 20]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sweep(self, n):
        for lam in enumerate_partitions(n):
            assert verify_rank_lemma(lam).ok

    def test_counts_match_the_elimination_oracle(self):
        # rank(J^k) for k = n - s, counted by the lemma and eliminated here
        for n in range(1, 10):
            for lam in enumerate_partitions(n):
                jordan = jordan_matrix(lam)
                power = [[int(i == j) for j in range(n)] for i in range(n)]
                ranks = []
                for _ in range(n):
                    ranks.append(sparse_rank(power))
                    power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*jordan)]
                             for row in power]
                counted = [r for _, _, r in verify_rank_lemma(lam).rows]
                assert counted == [ranks[n - s] for s in range(1, n + 1)], lam

    @pytest.mark.parametrize("planted", [
        [[0, 1, 0], [0, 1, 0], [0, 0, 0]],  # J e_2 repeated
        [[0, 2, 0], [0, 0, 0], [0, 0, 0]],  # an entry of 2
        [[0, 1, 1], [0, 0, 0], [0, 0, 0]],  # a row of two entries
    ])
    def test_non_unit_rows_are_refused(self, monkeypatch, planted):
        monkeypatch.setattr(linalg, "jordan_matrix", lambda partition: planted)
        with pytest.raises(ValueError, match=r"J\^1 are not distinct unit vectors"):
            verify_rank_lemma(Partition((2, 1)))


class TestIdealDegreeRank:
    def test_hook_values(self):
        pres = tanisaki_generators(Partition((2, 1)))
        assert ideal_degree_rank(pres, 0) == 0
        assert ideal_degree_rank(pres, 1) == 1
        assert ideal_degree_rank(pres, 2) == 6 == dim_graded_piece(3, 2)

    def test_degree_zero_always_trivial(self):
        for lam in enumerate_partitions(4):
            assert ideal_degree_rank(tanisaki_generators(lam), 0) == 0

    def test_monomial_enumeration(self):
        monos = list(monomials_of_degree(3, 2))
        assert len(monos) == dim_graded_piece(3, 2) == 6
        assert len(set(monos)) == 6
        assert all(sum(m) == 2 for m in monos)


def projection_graded_dims(lam, top):
    """Leading-form dimensions, per degree, of the truncated multiples m * g
    of the v-convention K-generators: an oracle for the gr column that never
    completes a Groebner basis.

    The leading forms of degree >= d span a space whose dimension is the
    rank r(>=d) of the rows restricted to the columns of degree >= d, so
    exactly r(>=d) - r(>=d+1) of them have degree d.
    """
    n = lam.n
    monos = [m for d in range(top + 1) for m in monomials_of_degree(n, d)]
    cols = {m: i for i, m in enumerate(monos)}
    rows = []
    for rec in k_tanisaki_generators(lam, "v").generators:
        e = rec.poly.degree()
        if not 0 <= e <= top:
            continue
        shifts = (m for k in range(top - e + 1) for m in monomials_of_degree(n, k))
        rows.extend(_shifted_rows(rec.poly, shifts, cols))
    ranks = [
        len(_invariant_factors_sparse(
            [{c: v for c, v in row.items() if sum(monos[c]) >= d} for row in rows]
        ))
        for d in range(top + 2)
    ]
    return [ranks[d] - ranks[d + 1] for d in range(top + 1)]


class TestFiltration:
    def test_point(self):
        rep = filtration_of(Partition((3,)))
        assert rep.ok
        quotient = [s - i for _, s, i, _ in rep.rows]
        assert quotient == [1, 0]

    def test_hook(self):
        rep = filtration_of(Partition((2, 1)))
        assert rep.ok
        quotient = [s - i for _, s, i, _ in rep.rows]
        assert quotient == [1, 2, 0]

    def test_n4_sweep(self):
        for lam in enumerate_partitions(4):
            rep = filtration_of(lam)
            assert rep.ok, (lam, rep.to_dict())
            assert rep.mismatch_degree is None
            # gr and ideal columns agree row by row
            for _, _, i, g in rep.rows:
                assert i == g

    def test_quotient_dims_sum_to_rank(self):
        for lam in enumerate_partitions(4):
            rep = filtration_of(lam)
            top = lam.springer_dimension()
            assert sum(s - i for d, s, i, _ in rep.rows if d <= top) == lam.multinomial_rank()

    def test_pass_implies_standard_monomial_count(self):
        for lam in enumerate_partitions(4):
            rep = filtration_of(lam)
            gb = buchberger(k_tanisaki_generators(lam, "v"))
            assert rep.ok
            assert len(standard_monomials(gb)) == lam.multinomial_rank()

    def test_gr_column_matches_echelon_oracle(self):
        lams = [lam for n in range(1, 5) for lam in enumerate_partitions(n)]
        for lam in lams + [Partition((2, 1, 1, 1))]:
            rep = filtration_of(lam)
            top = lam.springer_dimension() + 1
            assert [g for _, _, _, g in rep.rows] == projection_graded_dims(lam, top), lam

    def test_report_serialization(self):
        rep = filtration_of(Partition((2, 2)))
        doc = rep.to_dict()
        assert doc["ok"] is True and "verdict" not in doc
        assert len(doc["rows"]) == len(rep.rows)


class TestFreeness:
    def test_point(self):
        assert freeness_of(Partition((4,))).ok

    def test_flag_three(self):
        rep = freeness_of(Partition((1, 1, 1)))
        assert rep.ok
        assert all(not bad for _, _, bad in rep.degrees)

    def test_n4_sweep(self):
        for lam in enumerate_partitions(4):
            assert freeness_of(lam).ok

    def test_torsion_is_listed_per_prime_and_degree(self):
        # the certificate lists a p-primary summand as p in its degree
        lam = Partition((2, 1))
        rep = integral_freeness_check(lam, (1, 2), {2, 3}, {2: (1, 3, 3), 3: (1, 2)})
        assert not rep.ok
        assert rep.degrees == ((1, 1, (2,)), (2, 6, (2, 2, 2)))
        assert rep.to_dict()["degrees"][0] == {"d": 1, "rank": 1, "nonunit_factors": [2]}
        assert rep.to_dict()["primes"] == [{"p": 2, "series": [1, 3, 3]},
                                           {"p": 3, "series": [1, 2]}]

    def test_recorded_prime_without_a_series_fails_naming_it(self):
        # no F_3 series: nothing rules out 3-torsion, so the check fails closed
        rep = integral_freeness_check(Partition((2, 1)), (1, 2), {2, 3}, {2: (1, 2)})
        assert not rep.ok and rep.primes == ((2, (1, 2)), (3, None))
        assert all(not bad for _, _, bad in rep.degrees)
        assert integral_freeness_check(Partition((2, 1)), (1, 2), (), {}).ok

    def test_modular_count_below_rational_is_refused(self):
        with pytest.raises(ValueError, match="F_2 staircase below"):
            integral_freeness_check(Partition((2, 1)), (1, 2), {2}, {2: (1, 1)})


class TestFiltrationAgainstGarsiaProcesi:
    def test_wrong_cohomology_series_is_a_finding(self):
        # one standard monomial moved from degree 1 to degree 2: the total
        # is the multinomial rank, but degree 1 leaves Garsia-Procesi
        lam = Partition((1, 1, 1))
        rep = filtration_check(lam, (1, 1, 3, 1))
        assert not rep.ok and rep.mismatch_degree == 1
        # each count once: the staircase's against Garsia-Procesi's
        assert rep.findings == ("degree 1: staircase count 1 vs 2 from the Garsia-Procesi series",)
