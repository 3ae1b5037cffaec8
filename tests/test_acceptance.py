"""Acceptance criteria, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
every tolerance is exact equality.
"""

import time

from tanisaki.groebner import (
    DEGREVLEX,
    LEX,
    hilbert_series,
    normal_form,
    standard_monomials,
)
from tanisaki.ideals import (
    k_tanisaki_generators,
    tanisaki_generators,
    truncation_certificate,
)
from tanisaki.lambda_ring import verify_gamma_relations
from tanisaki.linalg import _slice, dim_graded_piece, ideal_degree_rank, verify_rank_lemma
from tanisaki.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_subsets,
    garsia_procesi_series,
)

from conftest import (
    cohomology_basis,
    coinvariant_series_oracle,
    filtration_of,
    freeness_of,
    kbasis,
    series_of,
    standalone_property_run,
)


def report(num, name, ok, extra=""):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_k_rank_theorem():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            count = len(standard_monomials(kbasis(lam)))
            assert count == lam.multinomial_rank(), (lam, count)
            checked += 1
    stretch = sum(
        1 for lam in enumerate_partitions(7) if k_tanisaki_generators(lam, "v").generators
    )
    report(
        1, "K-flavor standard-monomial count equals the multinomial rank (n<=6)",
        checked == 29,
        f"  [{checked} partitions, n=7 presentations: {stretch}, {time.perf_counter()-t0:.1f}s]",
    )


def test_criterion_02_cohomology_presentation():
    for n in range(1, 7):
        for lam in enumerate_partitions(n):
            series = hilbert_series(tanisaki_generators(lam))
            assert sum(series) == lam.multinomial_rank(), lam
            assert len(series) - 1 == lam.springer_dimension() and series[-1] > 0, lam
    report(2, "cohomology Hilbert sums and top degrees (n<=6)", True)


def test_criterion_03_full_flag_coinvariants():
    for n in range(1, 6):
        lam = Partition((1,) * n)
        series = hilbert_series(tanisaki_generators(lam))
        assert series == coinvariant_series_oracle(n), (n, series)
    report(3, "full-flag Hilbert series match the coinvariant oracle (n<=5)", True)


def test_criterion_04_large_reference_partition():
    t0 = time.perf_counter()
    lam = Partition((5, 4, 4, 2, 2, 2, 1))
    dual = lam.dual()
    assert dual.parts == (7, 6, 3, 3, 1)
    table = [dual.p_function(s) for s in range(1, 21)]
    assert table[:15] == [0] * 15
    assert table[15:] == [1, 4, 7, 13, 20]
    rep = verify_rank_lemma(lam)
    elapsed = time.perf_counter() - t0
    report(
        4, "p-function table and rank lemma for (5,4,4,2,2,2,1)",
        rep.ok and elapsed < 1.0,
        f"  [{elapsed*1000:.0f}ms]",
    )


def test_criterion_05_rank_lemma_sweep():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert verify_rank_lemma(lam).ok, lam
    report(5, "rank lemma for all partitions of n<=10", True)


def test_criterion_06_gamma_relations():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            rep = verify_gamma_relations(lam, kbasis(lam))
            assert rep.ok, (lam, rep.failures())
    report(6, "gamma relations vanish over the full (subset, d) window (n<=5)", True)


def test_criterion_07_filtration():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            rep = filtration_of(lam)
            assert rep.ok, (lam, rep.to_dict())
    report(7, "filtration check: gr of the K-ideal equals the cohomology ideal (n<=5)", True)


def test_criterion_08_integral_freeness():
    # the prime certificate against the Smith forms of the slices
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            rep = freeness_of(lam)
            assert rep.ok, (lam, rep.to_dict())
            pres = tanisaki_generators(lam)
            smith = [(d, *_slice(pres, d)) for d in range(1, lam.springer_dimension() + 2)]
            assert [(d, r) for d, r, _ in rep.degrees] == [(d, r) for d, r, _ in smith], lam
            assert not any(bad for _, _, bad in smith), lam
    report(8, "prime certificate: Z-free, with the Smith ranks and verdicts (n<=5)", True)


def test_criterion_09_truncation_certificates():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            gb = kbasis(lam)
            for s in range(1, n + 1):
                for subset in enumerate_subsets(n, s):
                    for cert in truncation_certificate(lam, subset):
                        nf = normal_form(cert["h"], gb)
                        assert nf.is_zero(), (lam, subset, cert["m"])
    report(9, "h_{s+1} and h_{s+2} reduce to zero modulo the kept generators (n<=5)", True)


def test_criterion_10_oracle_groebner_cross_validation():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            pres = tanisaki_generators(lam)
            series = hilbert_series(pres, DEGREVLEX)
            for d, value in enumerate(series):
                assert value == dim_graded_piece(n, d) - ideal_degree_rank(pres, d), (lam, d)
            assert series == hilbert_series(pres, LEX), lam
            k_lex = len(standard_monomials(kbasis(lam, LEX)))
            k_drl = len(standard_monomials(kbasis(lam)))
            assert k_lex == k_drl == lam.multinomial_rank(), lam
    report(10, "oracle ranks match staircase counts; orders agree (n<=5)", True)


def test_criterion_11_property_suites_standalone():
    code, stdout, _ = standalone_property_run()
    ok = code == 0
    tail = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    report(11, "randomized property suites run standalone with zero failures", ok,
           f"  [{tail}]")


def test_criterion_12_garsia_procesi_staircases():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            gp = garsia_procesi_series(lam)
            assert series_of(cohomology_basis(lam)) == gp, lam
            assert series_of(kbasis(lam)) == gp, lam
            checked += 1
    report(
        12, "Garsia-Procesi series equals the cohomology and K(v) staircases (n<=7)",
        checked == 44,
        f"  [{checked} partitions, {time.perf_counter()-t0:.1f}s]",
    )
