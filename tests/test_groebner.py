import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanisaki.groebner import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerError,
    InfiniteQuotient,
    MonomialOrder,
    basis_to_dict,
    buchberger,
    cache_path,
    cached_buchberger,
    hilbert_series,
    modular_series,
    normal_form,
    s_polynomial,
    staircase_series,
    standard_monomials,
    _LIMIT,
    _Engine,
    _Packing,
)
from tanisaki.ideals import GeneratorRecord, k_tanisaki_generators, tanisaki_generators
from tanisaki.linalg import dim_graded_piece, ideal_degree_rank
from tanisaki.partitions import Partition, enumerate_partitions
from tanisaki.polynomial import Polynomial, elementary_symmetric

from conftest import variables


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


class TestBuchberger:
    def test_flag_n2(self):
        y1, y2 = variables(2)
        gb = buchberger([y1 * y2, y1 + y2])
        assert [p.render("y") for p in gb.polys] == ["y1 + y2", "y2^2"]

    def test_linear_generators_fixed(self):
        gens = [Polynomial.variable(3, j) for j in (1, 2, 3)]
        gb = buchberger(gens)
        assert set(gb.polys) == set(gens)

    def test_hook_standard_monomials(self):
        gb = buchberger(tanisaki_generators(Partition((2, 1))))
        monos = standard_monomials(gb)
        # rank 3 is pinned by the linear-algebra oracle; the basis itself is
        # whatever degrevlex leaves under the staircase
        assert len(monos) == 3
        assert monos == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_every_s_polynomial_reduces_to_zero(self):
        for lam in enumerate_partitions(4):
            for source in (tanisaki_generators(lam), k_tanisaki_generators(lam, "v")):
                gb = buchberger(source)
                for i in range(len(gb.polys)):
                    for j in range(i):
                        s = s_polynomial(gb.polys[i], gb.polys[j], gb.order)
                        assert normal_form(s, gb).is_zero()

    def test_auto_reduced(self):
        for lam in enumerate_partitions(4):
            gb = buchberger(k_tanisaki_generators(lam, "v"))
            lms = gb.leading_monomials()
            for i, p in enumerate(gb.polys):
                for m in p.terms:
                    assert not any(
                        all(a <= b for a, b in zip(lms[j], m))
                        for j in range(len(lms))
                        if j != i
                    )

    def test_generators_reduce_to_zero(self):
        for lam in enumerate_partitions(4):
            pres = k_tanisaki_generators(lam, "v")
            gb = buchberger(pres)
            for g in pres.polynomials():
                assert normal_form(g, gb).is_zero()

    def test_deterministic_repeat(self):
        pres = k_tanisaki_generators(Partition((2, 2)), "v")
        assert buchberger(pres) == buchberger(pres)

    def test_empty_rejected(self):
        with pytest.raises(GroebnerError):
            buchberger([])


ORDERS = (LEX, DEGLEX, DEGREVLEX, MonomialOrder("degrevlex", (3, 1, 2)))
NEAR_LIMIT = st.one_of(st.integers(0, 3), st.integers(_LIMIT - 4, _LIMIT - 1))


def packable(order, exps):
    """Whether every field of the packed monomial stays below its guard bit."""
    return (sum(exps) if order.kind != "lex" else max(exps)) < _LIMIT


class TestPackedMonomials:
    def test_buchberger_never_calls_order_key(self, monkeypatch):
        pres = k_tanisaki_generators(Partition((2, 2, 1)), "v")
        calls = []
        key = MonomialOrder.key

        def counting(self, exps):
            calls.append(exps)
            return key(self, exps)

        monkeypatch.setattr(MonomialOrder, "key", counting)
        gb = buchberger(pres)
        assert len(standard_monomials(gb)) == 30
        assert calls == []

    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.kind}{o.priority or ''}")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=st.tuples(NEAR_LIMIT, NEAR_LIMIT, NEAR_LIMIT),
           b=st.tuples(NEAR_LIMIT, NEAR_LIMIT, NEAR_LIMIT))
    def test_packed_ops_match_exponent_vectors(self, order, a, b):
        packing = _Packing(order, 3)
        for e in (a, b):
            if not packable(order, e):
                with pytest.raises(GroebnerError):
                    packing.pack(e)
        if not (packable(order, a) and packable(order, b)):
            return
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        assert (pa < pb) == (order.key(a) < order.key(b))
        assert (pa == pb) == (a == b)
        g = packing.guard
        assert (((pb | g) - pa) & g == g) == all(x <= y for x, y in zip(a, b))
        # a product too wide to pack shows up as a guard bit, never as a carry
        ab = tuple(x + y for x, y in zip(a, b))
        if packable(order, ab):
            assert pa + pb == packing.pack(ab)
        else:
            assert (pa + pb) & g

    def test_priority_must_be_a_permutation(self):
        with pytest.raises(GroebnerError):
            buchberger([sum(variables(3))], MonomialOrder("lex", (1, 2)))

    def test_too_wide_is_an_error(self):
        with pytest.raises(GroebnerError):
            _Packing(LEX, 2).pack((_LIMIT, 0))
        with pytest.raises(GroebnerError):
            _Packing(DEGREVLEX, 2).pack((_LIMIT - 1, 1))
        y1, y2 = variables(2)
        # the lcm of these leading monomials has degree 40000
        with pytest.raises(GroebnerError):
            buchberger([y1**20000 * y2 - 1, y1 * y2**20000 - 1])
        # reducing y1^20000 by y1 - y2^2 under lex grows y2 past the field
        gb = buchberger([y1 - y2**2], LEX)
        with pytest.raises(GroebnerError):
            normal_form(y1**20000, gb)


def golden_lines():
    """Rendered reduced bases and staircases: every partition of n <= 5 under
    lex, deglex and degrevlex, and every partition of 6 under degrevlex, in
    cohomology and in both K conventions."""
    cases = [(lam, order) for n in range(1, 6) for lam in enumerate_partitions(n)
             for order in (LEX, DEGLEX, DEGREVLEX)]
    cases += [(lam, DEGREVLEX) for lam in enumerate_partitions(6)]
    for lam, order in cases:
        for pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u"),
                     k_tanisaki_generators(lam, "v")):
            gb = buchberger(pres, order)
            basis = "; ".join(p.render(pres.convention) for p in gb.polys)
            stairs = " ".join(map(str, standard_monomials(gb)))
            yield f"{lam.parts} {pres.flavor} {pres.convention} {order.kind}: {basis} | {stairs}"


class TestGolden:
    def test_bases_and_staircases_match_recorded_digest(self):
        # recorded from the tuple-keyed engine that preceded packed monomials
        digest = hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()
        assert digest == "e53d1c90b6eb75ada15822754b9e4d3a681050e7180b22863d2f19cb449ae794"


class TestNormalForm:
    def test_one_survives_proper_ideal(self):
        gb = buchberger(tanisaki_generators(Partition((2, 1))))
        one = Polynomial.constant(3, 1)
        assert normal_form(one, gb) == one

    def test_hook_k_square_reduction(self):
        gb = buchberger(k_tanisaki_generators(Partition((2, 1)), "u"))
        u1, u2, u3 = variables(3)
        nf = normal_form(u1**2, gb)
        # frozen degrevlex remainder; congruent to 2*u1 - 1 modulo the ideal
        assert nf == -2 * u2 - 2 * u3 + 5
        assert normal_form(nf - (2 * u1 - 1), gb).is_zero()

    def test_confluence_under_random_reducer_choice(self):
        gb = buchberger(k_tanisaki_generators(Partition((2, 1, 1)), "v"))
        rng_master = random.Random(7)
        for trial in range(100):
            p = Polynomial(
                4,
                {
                    tuple(rng_master.randint(0, 3) for _ in range(4)): rng_master.randint(-5, 5)
                    for _ in range(4)
                },
            )
            baseline = normal_form(p, gb)
            replay = normal_form(p, gb, rng=random.Random(trial))
            assert replay == baseline

    def test_memo_answers_repeats_and_rng_still_reduces(self, monkeypatch):
        gb = buchberger(k_tanisaki_generators(Partition((2, 1, 1)), "v"))
        reductions = []
        reduce = _Engine.reduce

        def counting(self, *args, **kwargs):
            reductions.append(kwargs.get("rng"))
            return reduce(self, *args, **kwargs)

        monkeypatch.setattr(_Engine, "reduce", counting)
        v1, v2, v3, v4 = variables(4)
        p = v1**3 * v2 - 2 * v3**2 + v4
        nf = normal_form(p, gb)
        assert reductions == [None] and gb.normal_forms == {p: nf}
        # an equal polynomial built anew is a hit: the key is the value
        assert normal_form(v4 - 2 * v3**2 + v1**3 * v2, gb) is nf
        assert len(reductions) == 1
        rng = random.Random(3)
        assert normal_form(p, gb, rng=rng) == nf
        assert reductions == [None, rng] and gb.normal_forms == {p: nf}

    def test_memo_is_per_basis(self):
        v1, v2, v3 = variables(3)
        p = v1**2 * v2 + 3 * v3**2 - v1
        bases = [buchberger(k_tanisaki_generators(Partition(parts), "v"))
                 for parts in ((2, 1), (1, 1, 1))]
        first = [normal_form(p, gb) for gb in bases]
        assert first[0] != first[1]
        for gb, nf in zip(bases, first):
            # a fresh, memo-free completion of the same ideal agrees
            assert nf == normal_form(p, buchberger(gb.source))
            assert normal_form(p, gb) is nf and gb.normal_forms == {p: nf}


class TestStandardMonomials:
    def test_point_variety(self):
        for n in (1, 2, 3):
            gb = buchberger(k_tanisaki_generators(Partition((n,)), "v"))
            assert standard_monomials(gb) == [(0,) * n]

    def test_hook_both_flavors(self):
        lam = Partition((2, 1))
        for pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "v")):
            assert len(standard_monomials(buchberger(pres))) == 3 == lam.multinomial_rank()

    def test_coinvariant_degrees(self):
        gb = buchberger(tanisaki_generators(Partition((1, 1, 1))))
        monos = standard_monomials(gb)
        by_degree = [0, 0, 0, 0]
        for m in monos:
            by_degree[sum(m)] += 1
        assert by_degree == [1, 2, 2, 1]

    def test_infinite_quotient_detected(self):
        gb = buchberger([variables(2)[0]])  # y2 is free
        with pytest.raises(InfiniteQuotient):
            standard_monomials(gb)


class TestHilbert:
    def test_hook_values(self):
        pres = tanisaki_generators(Partition((2, 1)))
        assert hilbert_series(pres) == (1, 2)

    def test_flag_three(self):
        pres = tanisaki_generators(Partition((1, 1, 1)))
        assert hilbert_series(pres) == (1, 2, 2, 1) == coinvariant_series_oracle(3)

    def test_top_degree_is_springer_dimension(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                series = hilbert_series(tanisaki_generators(lam))
                assert len(series) - 1 == lam.springer_dimension()
                assert series[-1] > 0

    def test_unit_ideal_has_empty_series(self):
        gb = buchberger([Polynomial.constant(2, 1)])
        assert standard_monomials(gb) == [] and staircase_series([]) == ()
        pres = tanisaki_generators(Partition((2, 1)))
        unit = GeneratorRecord(Polynomial.constant(3, 2), (), 0, 0, pres.flavor)
        pres = dataclasses.replace(pres, generators=pres.generators + (unit,))
        assert hilbert_series(pres) == ()

    def test_rejects_inhomogeneous(self):
        pres = k_tanisaki_generators(Partition((2, 1)), "u")
        with pytest.raises(GroebnerError):
            hilbert_series(pres)


class TestOrderIndependence:
    def test_counts_agree_across_orders(self):
        for n in range(1, 6):
            for lam in enumerate_partitions(n):
                counts = set()
                for order in (DEGREVLEX, LEX, DEGLEX):
                    gb = buchberger(k_tanisaki_generators(lam, "v"), order)
                    counts.add(len(standard_monomials(gb)))
                assert counts == {lam.multinomial_rank()}

    def test_cohomology_degreewise_across_orders(self):
        for lam in enumerate_partitions(4):
            pres = tanisaki_generators(lam)
            assert hilbert_series(pres, DEGREVLEX) == hilbert_series(pres, LEX)

    def test_priority_permutation_changes_basis_not_count(self):
        pres = tanisaki_generators(Partition((2, 1)))
        shuffled = MonomialOrder("degrevlex", (3, 1, 2))
        gb = buchberger(pres, shuffled)
        assert len(standard_monomials(gb)) == 3


class TestOracleAgreement:
    def test_degreewise_dimensions_match_linear_algebra(self):
        for n in range(1, 5):
            for lam in enumerate_partitions(n):
                pres = tanisaki_generators(lam)
                series = hilbert_series(pres)
                for d in range(len(series)):
                    assert series[d] == dim_graded_piece(n, d) - ideal_degree_rank(pres, d)


class TestCache:
    def test_round_trip_and_corruption_recovery(self, tmp_path):
        pres = k_tanisaki_generators(Partition((2, 1)), "v")
        cache = str(tmp_path)
        gb1 = cached_buchberger(pres, DEGREVLEX, cache)
        path = cache_path(pres, DEGREVLEX, cache)
        blob = open(path, "rb").read()
        assert cached_buchberger(pres, DEGREVLEX, cache).polys == gb1.polys

        doc = json.loads(blob)
        doc["basis"] = ["1"]
        open(path, "w").write(json.dumps(doc))
        gb2 = cached_buchberger(pres, DEGREVLEX, cache)
        assert gb2.polys == gb1.polys
        assert open(path, "rb").read() == blob  # byte-identical recomputation

    def test_cache_respects_order(self, tmp_path):
        pres = tanisaki_generators(Partition((2, 1)))
        a = cached_buchberger(pres, DEGREVLEX, str(tmp_path))
        b = cached_buchberger(pres, LEX, str(tmp_path))
        assert a.order != b.order

    def test_dict_form_carries_hash(self):
        pres = tanisaki_generators(Partition((2, 1)))
        gb = buchberger(pres)
        doc = basis_to_dict(gb)
        assert set(doc) == {"schema_version", "order", "basis"}
        assert doc["schema_version"] == 2


class TestPrimeCertificate:
    def test_content_removal_records_its_prime(self):
        # (x^2, 2x) over Q is (x), but Z[x]/(x^2, 2x) has 2-torsion in degree 1
        (x,) = variables(1)
        gb = buchberger([x * x, x * 2])
        assert [p.render("x") for p in gb.polys] == ["x1"] and gb.primes == {2}
        mod2 = buchberger([x * x, x * 2], DEGREVLEX, 2)
        assert [p.render("x") for p in mod2.polys] == ["x1^2"]
        assert standard_monomials(mod2) == [(0,), (1,)]

    def test_modular_series_needs_the_source_presentation(self):
        # a basis completed from a plain list has primes but no presentation
        (x,) = variables(1)
        gb = buchberger([x * x, x * 2])
        assert gb.primes == {2} and gb.source is None
        with pytest.raises(GroebnerError, match="source presentation"):
            modular_series(gb, 2)

    def test_modular_staircase_through_a_degree(self):
        # mod 2 the generator 2x vanishes, leaving an infinite ray of x powers
        x, y = variables(2)
        mod2 = buchberger([x * 2 + y * 3, y * y], DEGREVLEX, 2)
        assert [p.render("x") for p in mod2.polys] == ["x2"]
        with pytest.raises(InfiniteQuotient):
            standard_monomials(mod2)
        assert standard_monomials(mod2, max_degree=2) == [(0, 0), (1, 0), (2, 0)]

    def test_modular_coefficients_are_reduced(self):
        x, y = variables(2)
        mod3 = buchberger([x * 2 + y * 4, y * y * 5 - x * y], DEGREVLEX, 3)
        assert all(0 <= c < 3 for p in mod3.polys for c in p.terms.values())
        assert all(p.terms[max(p.terms, key=DEGREVLEX.key)] == 1 for p in mod3.polys)

    def test_primes_of_the_cohomology_completions(self):
        primes = {lam.parts: buchberger(tanisaki_generators(lam)).primes
                  for lam in enumerate_partitions(5)}
        assert {parts: p for parts, p in primes.items() if p} == {(3, 2): {3}, (2, 2, 1): {2}}
