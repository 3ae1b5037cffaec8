"""The mutant table: each row plants one fault on one layer of the CLI and
lists the runs that must see it.  A case is an argv and the one result
its planted run gives: exit 1 with no stdout and the pinned stderr line,
exit 1 with the pinned set of failing suites (a command without suites
is one block, named by the command), or SURVIVES, the unplanted
run's exit code and stdout.  Every argv passes unplanted first, in the
same process, so each exit 1 comes from the plant."""

import json

import pytest

from tanisaki import cli, groebner, ideals
from tanisaki.ideals import k_tanisaki_generators, tanisaki_generators
from tanisaki.partitions import Partition
from tanisaki.polynomial import Polynomial

from conftest import variables, without_smallest_prime

SURVIVES = None

_reduce = groebner._Engine.reduce
_standard_monomials = groebner.standard_monomials
_cached_buchberger = groebner.cached_buchberger
_lambda_coefficient = ideals.lambda_coefficient


def reduce_drops_a_term(self, terms):
    """`_Engine.reduce` losing the lowest term of any remainder with at
    least 2 terms, in completion and normal forms alike."""
    remainder, scale = _reduce(self, terms)
    if len(remainder) >= 2:
        remainder = dict(remainder)
        del remainder[min(remainder)]
    return remainder, scale


def staircase_loses_a_monomial(gb, max_degree=None):
    """`standard_monomials` without its last monomial."""
    return _standard_monomials(gb, max_degree)[:-1]


def planted_basis(shape):
    """A cached_buchberger that completes the cohomology presentation of the
    partition shape(parts) of the asked presentation's parts, in the asked
    order: the only presentation a command completes is the cohomology one,
    and in u and in v the K basis is that completion."""
    def planted(pres, *args):
        assert pres.flavor == ideals.COHOMOLOGY
        parts = shape(pres.partition.parts)
        return _cached_buchberger(tanisaki_generators(Partition(parts)), *args)

    return planted


# partitions of 7 with the same multinomial rank, 210, and the same top degree, 6
SWAPPED = {(3, 2, 2): (4, 1, 1, 1), (4, 1, 1, 1): (3, 2, 2)}


def shifted_window(s, q):
    """`kept_degrees` one degree later: d = s+2-q..s+1."""
    return range(s + 2 - q, s + 2)


def translated_kv(lam, convention="u"):
    """The K(u) presentation of lam, labelled with the convention: in v, the
    K-ideal translated by v_i -> v_i - 1."""
    return k_tanisaki_generators(lam, "u")._replace(convention=convention)


def translated_ku(lam, convention="v"):
    """The K(v) presentation of lam, labelled with the convention: in u, the
    K-ideal translated by u_i -> u_i + 1."""
    return k_tanisaki_generators(lam, "v")._replace(convention=convention)


def swapped_record(lam, convention="v"):
    """The K presentation of lam with record (subset 1,2, d 2) replaced by its
    image under (2 3), the polynomial of record (1,3): a K-only asymmetry,
    since the cohomology presentation is left as built."""
    pres = k_tanisaki_generators(lam, convention)
    gens = list(pres.generators)
    k = next(i for i, g in enumerate(gens) if g.subset == (1, 2) and g.d == 2)
    gens[k] = gens[k]._replace(poly=gens[k].poly.permute_variables((1, 3, 2)))
    return pres._replace(generators=tuple(gens))


def substituted(images):
    """A `lambda_coefficient` that substitutes images(x_1..x_n) for the
    variables of every coefficient it returns, in whichever variables it
    writes: the cohomology and K presentations, and the certificate and the
    sweeps that rebuild them, all agree with the plant."""
    def planted(n, *args):
        xs = images(variables(n))
        out = Polynomial.zero(n)
        for m, c in _lambda_coefficient(n, *args).terms.items():
            term = Polynomial.constant(n, c)
            for x, e in zip(xs, m):
                term = term * x**e
            out = out + term
        return out

    return planted


def wrong_basis(parts, d, count, gp):
    return (f"error: wrong cohomology basis: partition {parts}: degree {d}: staircase count "
            f"{count} vs {gp} from the Garsia-Procesi series\n")


def refused(convention, parts, subset, d):
    return (f"error: K({convention}) presentation is not the Tanisaki ideal in {convention}: "
            f"partition {parts}: subset {subset}, d {d}\n")


def n4(convention):
    return ("verify", "--n", "4", "--convention", convention)


MEMBERSHIP_SUITES = ("--suite", "gamma", "--suite", "lambda", "--suite", "truncation",
                     "--suite", "stability")
P21 = ("--partition", "2,1")

# (4) is verified first in `verify --n 4`, so a row that fails every
# partition names (4)
MUTANTS = {
    "engine: reduce drops a term": (
        (groebner._Engine, "reduce", reduce_drops_a_term),
        [(n4(c), "error: infinite quotient detected: variable 4 has no pure-power leading "
                 "term\n") for c in "uv"],
    ),
    "engine: staircase loses a monomial": (
        (groebner, "standard_monomials", staircase_loses_a_monomial),
        [(n4(c), wrong_basis(4, 0, 0, 1)) for c in "uv"],
    ),
    # the point ideal of (n) holds the true one, so every relation reduces
    # to 0 on its basis: only the staircase series tells, which every
    # reader of the basis is held to, not only the filtration suite
    "_Context basis: the point ideal of (n)": (
        (groebner, "cached_buchberger", planted_basis(lambda parts: (sum(parts),))),
        [(("verify", *P21, *MEMBERSHIP_SUITES), wrong_basis("2,1", 1, 0, 2)),
         (("verify", "--partition", "2,2", "--convention", "u", "--order", "lex",
           *MEMBERSHIP_SUITES), wrong_basis("2,2", 1, 0, 3)),
         (("verify", "--partition", "2,2", "--jobs", "2", "--partition", "3,1",
           *MEMBERSHIP_SUITES), wrong_basis("2,2", 1, 0, 3)),
         (("gamma", *P21, "--subset", "1,2", "--d", "2"), wrong_basis("2,1", 1, 0, 2)),
         (("verify", *P21, "--suite", "freeness"), wrong_basis("2,1", 1, 0, 2)),
         (("sweep", *P21), wrong_basis("2,1", 1, 0, 2)),
         (("presentation", *P21, "--flavor", "cohomology"), wrong_basis("2,1", 1, 0, 2)),
         # the K basis is walked first; the planted one gets a walk of its own
         (("verify", *P21, "--suite", "gamma", "--suite", "freeness"),
          wrong_basis("2,1", 1, 0, 2))],
    ),
    # the smaller, full-flag ideal: refused by its staircase series before
    # any suite runs, in degree 2, past the top degree of (2,1)
    "_Context basis: the full-flag ideal (1^n)": (
        (groebner, "cached_buchberger", planted_basis(lambda parts: (1,) * sum(parts))),
        [(("verify", *P21, "--suite", "gamma", "--suite", "truncation", "--suite",
           "stability", *u), wrong_basis("2,1", 2, 2, 0)) for u in [(), ("--convention", "u")]],
    ),
    # the bases of two partitions of the same rank and top degree, swapped,
    # at n = 7, past verify's cap: their series part in degree 3, so every
    # command that reads either basis refuses it before any report
    "_Context basis: (3,2,2) and (4,1,1,1) swapped": (
        (groebner, "cached_buchberger", planted_basis(lambda parts: SWAPPED.get(parts, parts))),
        [(("gamma", "--partition", parts, "--subset", subset, "--d", d, "--convention", c),
          wrong_basis(parts, 3, count, gp))
         for parts, subset, d, count, gp in [("3,2,2", "1,2,3,4,5,6", "3", 49, 43),
                                             ("4,1,1,1", "1,2,3,4", "4", 43, 49)]
         for c in "uv"]
        + [(("presentation", "--partition", parts, "--flavor", "both", "--convention", c),
            wrong_basis(parts, 3, count, gp))
           for parts, count, gp in [("3,2,2", 49, 43), ("4,1,1,1", 43, 49)] for c in "uv"],
    ),
    # the plant's u presentation is the true one, and a u run certifies the
    # u presentation, not the v one, so the plant changes nothing in u
    "K presentation: K(u) labelled v": (
        (cli, "k_tanisaki_generators", translated_kv),
        [(argv, refused("v", "2,1", "1,2", 2)) for argv in [
            ("presentation", *P21),
            ("presentation", *P21, "--flavor", "ktheory", "--format", "text"),
            ("verify", *P21, "--suite", "gamma"),
            ("gamma", *P21, "--subset", "1,2", "--d", "2"),
            ("verify", *P21, "--suite", "filtration")]]
        + [(("verify", *P21, "--suite", "gamma", "--convention", "u"), SURVIVES),
           (("verify", *P21, "--suite", "filtration", "--convention", "u", "--order", "lex"),
            SURVIVES)],
    ),
    # the rank lemma reads no basis, the freeness suite the cohomology one
    "K presentation: K(v) labelled u": (
        (cli, "k_tanisaki_generators", translated_ku),
        [((*argv, "--convention", "u"), refused("u", "2,1", "1,2", 2)) for argv in [
            ("presentation", *P21),
            ("presentation", *P21, "--flavor", "ktheory", "--format", "text"),
            ("gamma", *P21, "--subset", "1,2", "--d", "2"),
            ("sweep", *P21),
            ("verify", *P21, "--order", "lex"),
            *[("verify", *P21, "--suite", suite)
              for suite in ("gamma", "lambda", "truncation", "stability", "filtration")]]]
        + [(("verify", *P21, "--suite", suite, "--convention", "u"), SURVIVES)
           for suite in ("rank-lemma", "freeness")],
    ),
    # stability permutes only the cohomology generators: the K side it
    # leaves alone is refused by the certificate before any report
    "K presentation: one K record swapped by (2 3)": (
        (cli, "k_tanisaki_generators", swapped_record),
        [(("verify", *P21, "--suite", "stability", "--convention", c),
          refused(c, "2,1", "1,2", 2)) for c in "uv"],
    ),
    # in v each builder row keeps the certificate and the sweeps in step
    # with it, and only stability or only freeness sees it; none commutes
    # with u_i = v_i + 1, so in u the certificate refuses it first
    "builder: y_4 -> y_4 + y_1": (
        (ideals, "lambda_coefficient", substituted(lambda y: [*y[:3], y[3] + y[0]])),
        [(n4("u"), refused("u", 4, 4, 1)), (n4("v"), {"stability"})],
    ),
    "builder: y_1 -> y_1 + y_2": (
        (ideals, "lambda_coefficient", substituted(lambda y: [y[0] + y[1], *y[1:]])),
        [(n4("u"), refused("u", 4, 1, 1)), (n4("v"), {"stability"})],
    ),
    # the cohomology and K builders and the certificate read the same
    # shifted window; the K generator h_{s+1} of a subset of size 1 is not
    # 0, but the cohomology e_{s+1} is, so the certificate refuses it
    "builder: the kept window one degree later": (
        (ideals, "kept_degrees", shifted_window),
        [(n4(c), refused(c, 4, 1, 2)) for c in "uv"],
    ),
    # over Q the same ideal; only its Z-form changes
    "builder: y_i -> y_i + (y_1 + ... + y_n)": (
        (ideals, "lambda_coefficient", substituted(lambda y: [x + sum(y[1:], y[0]) for x in y])),
        [(n4("u"), refused("u", 4, 1, 1)), (n4("v"), {"freeness"})],
    ),
    # at n <= 5, (2,2) and (2,2,1) record 2 and (3,2) records 3
    "modular: the smallest recorded prime skipped": (
        (groebner, "modular_series", without_smallest_prime),
        [(("verify", "--n", "5", "--suite", "freeness", "--convention", c), {"freeness"})
         for c in "uv"],
    ),
}


@pytest.mark.parametrize("plant, argv, expected", [
    pytest.param(plant, argv, expected, id=f"{row} | {' '.join(argv)}")
    for row, (plant, cases) in MUTANTS.items() for argv, expected in cases])
def test_planted_run(capsys, monkeypatch, plant, argv, expected):
    assert cli.main(list(argv)) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(*plant)
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if expected is SURVIVES:
        assert (code, out, err) == (0, plain, "")
    elif isinstance(expected, str):
        assert (code, out, err) == (1, "", expected)
    else:
        failing = {suite for r in json.loads(out)["results"]
                   for suite, doc in r.get("suites", {argv[0]: r}).items() if not doc["ok"]}
        assert (code, failing, err) == (1, expected, "")


def test_translated_plant_has_the_multinomial_rank():
    # the staircase check cannot see the plant: the u-generators read as v
    # present a translate of the ideal, of the same rank
    lam = Partition((2, 1))
    gb = groebner.buchberger(translated_kv(lam, "v"), groebner.DEGREVLEX)
    assert len(groebner.standard_monomials(gb)) == lam.multinomial_rank()


@pytest.mark.parametrize("convention", ["u", "v"])
def test_swapped_record_is_the_image_of_another_record(convention):
    lam = Partition((2, 1))
    [image] = [g.poly for g in swapped_record(lam, convention).generators
               if (g.subset, g.d) == ((1, 2), 2)]
    [target] = [g.poly for g in k_tanisaki_generators(lam, convention).generators
                if (g.subset, g.d) == ((1, 3), 2)]
    assert image == target
