import functools
import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanisaki import cli, groebner
from tanisaki.groebner import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    GroebnerError,
    InfiniteQuotient,
    MonomialOrder,
    buchberger,
    hilbert_series,
    modular_series,
    normal_form,
    staircase_series,
    standard_monomials,
    _LIMIT,
    _Engine,
    _Packing,
    _integral,
)
from tanisaki.ideals import (
    KTHEORY,
    GeneratorRecord,
    extra_degrees,
    k_tanisaki_generators,
    kept_degrees,
    relation_grid,
    tanisaki_generators,
)
from tanisaki.lambda_ring import gamma_op
from tanisaki.partitions import Partition, enumerate_partitions
from tanisaki.polynomial import Polynomial

from conftest import (
    coinvariant_series_oracle,
    leading_monomial,
    order_key,
    random_path_normal_form,
    s_polynomial,
    shift_variables,
    variables,
)


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
            lms = gb.engine.exponents
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


ORDERS = (LEX, DEGLEX, DEGREVLEX)
NEAR_LIMIT = st.one_of(st.integers(0, 3), st.integers(_LIMIT - 4, _LIMIT - 1))


def packable(order, exps):
    """Whether every field of the packed monomial stays below its guard bit."""
    return (sum(exps) if order.kind != "lex" else max(exps)) < _LIMIT


class TestPackedMonomials:
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
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
        assert (pa < pb) == (order_key(order, a) < order_key(order, b))
        assert (pa == pb) == (a == b)
        g = packing.guard
        assert (((pb | g) - pa) & g == g) == all(x <= y for x, y in zip(a, b))
        # a product too wide to pack shows up as a guard bit, never as a carry
        ab = tuple(x + y for x, y in zip(a, b))
        if packable(order, ab):
            assert pa + pb == packing.pack(ab)
        else:
            assert (pa + pb) & g

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


@functools.cache
def primes_cases():
    """(presentation, order, rational basis): every partition of n <= 6 under
    lex, deglex and degrevlex, in cohomology and in both K conventions;
    completed once per session, for the two tests that read them."""
    return tuple((pres, order, buchberger(pres, order))
                 for n in range(1, 7) for lam in enumerate_partitions(n)
                 for order in (LEX, DEGLEX, DEGREVLEX)
                 for pres in (tanisaki_generators(lam), k_tanisaki_generators(lam, "u"),
                              k_tanisaki_generators(lam, "v")))


def primes_lines():
    """The primes each completion of `primes_cases` records."""
    for pres, order, gb in primes_cases():
        primes = sorted(gb.primes)
        yield (f"{pres.partition.parts} {pres.flavor} {pres.convention} "
               f"{order.kind}: {primes}")


def reduced_mod(f: Polynomial, p: int) -> Polynomial:
    """f with every coefficient a/b replaced by a * b^-1 mod p, in 0..p-1."""
    terms = {}
    for m, c in f.terms.items():
        c = Fraction(c)
        terms[m] = c.numerator * pow(c.denominator, -1, p) % p
    return Polynomial(f.n, terms)


class TestGolden:
    def test_bases_and_staircases_match_recorded_digest(self):
        # recorded from the tuple-keyed engine that preceded packed monomials
        digest = hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()
        assert digest == "e53d1c90b6eb75ada15822754b9e4d3a681050e7180b22863d2f19cb449ae794"

    def test_primes_match_recorded_digest(self):
        # recorded from the engine whose reductions divide nothing, so only
        # contents and monic leading coefficients record primes; 72 of the
        # 261 lines name a prime
        lines = list(primes_lines())
        assert sum(not line.endswith("[]") for line in lines) == 72
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "80cf2b19882d71f577b4447dbe764e04d98e9f94f6e6f2872bc3bcbe75acb674"


    def test_every_unrecorded_prime_is_lucky(self):
        # a prime outside gb.primes divides no content the completion removed
        # and no monic leading coefficient, so every step is valid over
        # Z_(p) and the F_p completion is the rational basis reduced mod p
        pairs = 0
        for pres, order, gb in primes_cases():
            for p in (2, 3, 5, 7):
                if p not in gb.primes:
                    modular = buchberger(pres, order, p)
                    assert modular.polys == tuple(reduced_mod(f, p) for f in gb.polys), (
                        pres.partition, pres.flavor, pres.convention, order.kind, p)
                    pairs += 1
        assert pairs == 972


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
        # the Tanisaki bases are monic in the engine, so their reductions
        # never scale; 2*x1 + 3*x2 keeps leading coefficient 2, so reductions
        # on it scale by powers of 2 (scale > 1)
        x1, x2 = variables(2)
        bases = [buchberger(k_tanisaki_generators(Partition((2, 1, 1)), convention))
                 for convention in ("u", "v")]
        bases.append(buchberger([x1 * 2 + x2 * 3, x2 * x2]))
        scales = []
        for gb in bases:
            n = gb.n
            rng_master = random.Random(7)
            for trial in range(100):
                p = Polynomial(
                    n,
                    {
                        tuple(rng_master.randint(0, 3) for _ in range(n)):
                            rng_master.randint(-5, 5)
                        for _ in range(4)
                    },
                )
                scales.append(gb.engine.reduce(_integral(p, gb.engine.packing)[0])[1])
                baseline = normal_form(p, gb)
                replay = random_path_normal_form(p, gb, random.Random(trial))
                assert replay == baseline
        assert any(scale > 1 for scale in scales)

    def test_each_call_reduces_once(self, monkeypatch):
        gb = buchberger(k_tanisaki_generators(Partition((2, 1, 1)), "v"))
        reductions = []
        reduce = _Engine.reduce

        def counting(self, terms):
            reductions.append(terms)
            return reduce(self, terms)

        monkeypatch.setattr(_Engine, "reduce", counting)
        v1, v2, v3, v4 = variables(4)
        nf = normal_form(v1**3 * v2 - 2 * v3**2 + v4, gb)
        assert normal_form(v4 - 2 * v3**2 + v1**3 * v2, gb) == nf
        assert len(reductions) == 2

    def test_normal_form_is_per_basis(self):
        v1, v2, v3 = variables(3)
        p = v1**2 * v2 + 3 * v3**2 - v1
        bases = [buchberger(k_tanisaki_generators(Partition(parts), "v"))
                 for parts in ((2, 1), (1, 1, 1))]
        first = [normal_form(p, gb) for gb in bases]
        assert first[0] != first[1]
        for gb, nf in zip(bases, first):
            # a fresh completion of the same ideal agrees
            assert nf == normal_form(p, buchberger(gb.source))


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
        unit = GeneratorRecord(Polynomial.constant(3, 2), (), 0, 0)
        pres = pres._replace(generators=pres.generators + (unit,))
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
        assert all(p.terms[leading_monomial(p, DEGREVLEX)] == 1 for p in mod3.polys)

    def test_primes_of_the_cohomology_completions(self):
        primes = {lam.parts: buchberger(tanisaki_generators(lam)).primes
                  for lam in enumerate_partitions(5)}
        assert {parts: p for parts, p in primes.items() if p} == {(3, 2): {3}, (2, 2, 1): {2}}


def both_flavors(lam):
    return (tanisaki_generators(lam), k_tanisaki_generators(lam, "v"))


class TestEngineMemos:
    def test_reducer_memo_entries_equal_fresh_scans(self, monkeypatch):
        engines = []

        class Checked(_Engine):
            """Checks the memo against fresh scans each time the basis grows
            and empties it, and records every engine it builds."""

            def __init__(self, *args):
                super().__init__(*args)
                engines.append(self)

            def check(self):
                for m, i in self.reducers.items():
                    assert i == self.find_reducer(m)

            def add(self, terms):
                self.check()
                idx = super().add(terms)
                assert self.reducers == {}
                return idx

        monkeypatch.setattr(groebner, "_Engine", Checked)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                for pres in both_flavors(lam):
                    del engines[:]
                    gb = buchberger(pres)
                    for g in pres.polynomials()[:5]:
                        normal_form(g * g, gb)
                    assert gb.engine in engines and any(e.reducers for e in engines)
                    for eng in engines:
                        eng.check()

    def test_add_empties_the_reducer_memo(self):
        gb = buchberger(k_tanisaki_generators(Partition((2, 1, 1)), "v"))
        v1, v2, v3, v4 = variables(4)
        p = v1**3 * v2 - v3**2 * v4 + 2 * v1
        nf = normal_form(p, gb)
        eng = gb.engine
        assert eng.reducers
        # a new element whose leading monomial divides a term of nf
        eng.add({eng.packing.pack(leading_monomial(nf, gb.order)): 1})
        assert eng.reducers == {}
        assert normal_form(p, gb) != nf

    def test_too_wide_pack_miss_raises_and_is_not_cached(self):
        for order, wide in ((LEX, (_LIMIT, 0)), (DEGREVLEX, (_LIMIT - 1, 1))):
            packing = _Packing(order, 2)
            for _ in range(2):
                with pytest.raises(GroebnerError):
                    packing.pack(wide)
            m = packing.pack((2, 1))
            assert packing.pack((2, 1)) == m == 2 * packing.units[0] + packing.units[1]
            # the layout alone: no table fills as monomials are packed
            assert set(vars(packing)) == {"guard", "exponent_guard", "shifts", "units", "graded"}

    def test_leading_exponents_are_the_unpacked_leading_monomials(self):
        for pres in both_flavors(Partition((3, 2, 1))):
            gb = buchberger(pres, DEGLEX)
            eng = gb.engine
            assert eng.exponents == [eng.packing.unpack(m) for m in eng.lms]
            assert eng.exponents == [leading_monomial(p, DEGLEX) for p in gb.polys]


class TestSharedLeadingMonomials:
    """The CLI walks one staircase per order for a partition's bases: the
    K(v) ideal is the cohomology one in v, and u_i = v_i + 1 sends each
    monomial to itself plus monomials that properly divide it, so no
    leading monomial changes under any order.

    The bases themselves correspond too: the CLI's K basis is the
    cohomology basis in both conventions, and T: v_i -> u_i - 1 maps it
    onto the K(u) basis, term for term.  The proper divisors of a leading
    monomial of a minimal basis are standard, and so is every divisor of a
    standard monomial, so the substituted reduced basis is already reduced
    and T maps the span of the staircase onto itself: NF_u(T f) = T(NF_v f).
    So the CLI reduces only in v and renders u; the direct K(u) completion,
    which no command runs, is the oracle."""

    @pytest.mark.parametrize("order,max_n", [
        pytest.param(DEGREVLEX, 6, id="degrevlex"),
        pytest.param(DEGLEX, 5, id="deglex"),
        pytest.param(LEX, 5, id="lex"),
    ])
    def test_cli_k_u_basis_is_the_u_completion(self, order, max_n):
        # NF_u(T f) = T(NF_v f), with f built in v and T f in u, on each
        # gamma-sweep row and, for remainders other than 0, on gamma^d of
        # the unshifted class of its subset.  The oracles are the direct
        # K(u) completions of `primes_cases`, and conftest's v_i = u_i - 1
        oracles = [(pres.partition, gb) for pres, kind, gb in primes_cases()
                   if pres.convention == "u" and kind == order and pres.n <= max_n]
        assert len(oracles) == sum(len(enumerate_partitions(n)) for n in range(1, max_n + 1))
        for lam, oracle in oracles:
            ctx = cli._Context(lam, cli.RunConfig([lam], convention="u", order=order))
            gb, monos = ctx.basis(KTHEORY)
            assert oracle.polys == tuple(shift_variables(p, -1) for p in gb.polys), lam
            assert monos == standard_monomials(oracle), lam
            for subset, q in relation_grid(lam):
                s = len(subset)
                for d in (*kept_degrees(s, q), *extra_degrees(s)):
                    for shift in (-s, 0):
                        nf_u = normal_form(gamma_op(lam.n, subset, shift, d, "u"), oracle)
                        nf_v = normal_form(gamma_op(lam.n, subset, shift, d, "v"), gb)
                        assert nf_u == shift_variables(nf_v, -1), (lam, subset, shift, d)


def brute_force_staircase(gb, max_degree=None):
    """Every monomial in the box of the pure-power leading terms that no
    leading monomial divides, sorted by (degree, exponents); leading
    monomials are read off the monic polynomials, not from the engine."""
    lms = [leading_monomial(p, gb.order) for p in gb.polys]
    bounds = [min(m[j] for m in lms if sum(m) == m[j]) for j in range(gb.n)]
    out = [
        m for m in product(*map(range, bounds))
        if (max_degree is None or sum(m) <= max_degree)
        and not any(all(a <= b for a, b in zip(lm, m)) for lm in lms)
    ]
    return sorted(out, key=lambda m: (sum(m), m))


class TestPackedStaircase:
    @pytest.mark.parametrize("kind", ["degrevlex", "deglex", "lex"])
    def test_matches_brute_force(self, kind):
        order = MonomialOrder(kind)
        for n in range(1, 7):
            for lam in enumerate_partitions(n):
                top = lam.springer_dimension()
                for pres in both_flavors(lam):
                    gb = buchberger(pres, order)
                    monos = standard_monomials(gb)
                    assert monos == brute_force_staircase(gb)
                    assert len(monos) == lam.multinomial_rank()
                    for d in (0, top // 2, top + 1):
                        assert standard_monomials(gb, d) == brute_force_staircase(gb, d)

    def test_a_walk_past_the_packing_width_raises(self):
        y1, y2 = variables(2)
        for order in (LEX, DEGREVLEX):
            gb = buchberger([y1], order)  # y2 is free
            assert standard_monomials(gb, _LIMIT - 1) == [(0, e) for e in range(_LIMIT)]
            with pytest.raises(GroebnerError, match="too wide"):
                standard_monomials(gb, _LIMIT)
