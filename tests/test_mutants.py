"""The mutant table: each row plants one fault on one layer, and
`verify --n 4` must exit 1 on it in u and in v, naming it in the same
stderr line.  So far the table holds the engine's rows."""

import pytest

from tanisaki import cli, groebner

_reduce = groebner._Engine.reduce
_standard_monomials = groebner.standard_monomials


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


MUTANTS = {
    # (4) is verified first, so its point ideal is the one each row names
    "engine: reduce drops a term": (
        (groebner._Engine, "reduce", reduce_drops_a_term),
        "error: infinite quotient detected: variable 4 has no pure-power leading term\n",
    ),
    "engine: staircase loses a monomial": (
        (groebner, "standard_monomials", staircase_loses_a_monomial),
        "error: wrong cohomology basis: partition 4: staircase size 0, multinomial rank 1\n",
    ),
}


@pytest.mark.parametrize("convention", ["u", "v"])
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_exits_one(capsys, monkeypatch, mutant, convention):
    plant, stderr = MUTANTS[mutant]
    monkeypatch.setattr(*plant)
    code = cli.main(["verify", "--n", "4", "--convention", convention])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", stderr)
