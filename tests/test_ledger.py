"""The ledger: what one command runs, call by call.  Each layer entry point
is wrapped under every name a `tanisaki` module holds it by, and each call
is recorded by what it was asked, never by a basis it returns.  A row is an
argv and its whole expected ledger; a column the row does not name must
stay empty.  One runner runs every row through `cli.main` in this process,
serially: calls made in `--jobs` workers would be invisible to it."""

import gc
import sys
import weakref
from types import SimpleNamespace

import pytest

from tanisaki import cli, groebner, ideals, linalg
from tanisaki.ideals import tanisaki_generators
from tanisaki.partitions import Partition, enumerate_partitions

from conftest import variables


def _parts(pres):
    return pres.partition.parts


# (column, module, function, what a call records from its arguments)
ENTRY_POINTS = (
    ("complete", groebner, "buchberger",
     lambda pres, order=groebner.DEGREVLEX, modulus=0:
         (_parts(pres), pres.convention, order.kind, modulus)),
    ("walk", groebner, "standard_monomials",
     lambda gb, max_degree=None: (_parts(gb.source), gb.engine.modulus)),
    ("certify", ideals, "k_certificate", lambda coh, k: (_parts(k), k.convention)),
    ("judge", linalg, "filtration_check", lambda p, series: p.parts),
    ("member", cli, "_membership", lambda pres, gb: _parts(pres)),
    ("reduce", groebner, "normal_form", lambda p, gb: (_parts(gb.source), p)),
    ("write", groebner, "write_basis",
     lambda pres, polys, order, cache_dir:
         (_parts(pres), pres.flavor, pres.convention, order.kind)),
    *[("eliminate", linalg, name, lambda *args, name=name: name)
      for name in ("_unit_pivots", "_invariant_factors_sparse", "smith_normal_form")],
)
COLUMNS = dict.fromkeys(column for column, *_ in ENTRY_POINTS)


@pytest.fixture
def ledger(monkeypatch):
    """Every entry point wrapped; the book fills as the layers run."""
    led = SimpleNamespace(book={column: [] for column in COLUMNS}, completed=[],
                          engine=[0], steps=[])
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tanisaki"]

    def wrap(column, fn, record):
        def wrapper(*args, **kwargs):
            led.book[column].append(record(*args, **kwargs))
            before = led.engine[0]
            out = fn(*args, **kwargs)
            if column == "complete":
                led.completed.append(weakref.ref(out))
            elif column == "reduce":
                led.steps.append(led.engine[0] - before)
            return out
        return wrapper

    for column, module, name, record in ENTRY_POINTS:
        fn = getattr(module, name)
        wrapper = wrap(column, fn, record)
        for held in modules:
            for attr, value in list(vars(held).items()):
                if value is fn:
                    monkeypatch.setattr(held, attr, wrapper)
    reduce = groebner._Engine.reduce

    def counting(self, *args):
        led.engine[0] += 1
        return reduce(self, *args)

    monkeypatch.setattr(groebner._Engine, "reduce", counting)
    return led


def of(n):
    return [p.parts for p in enumerate_partitions(n)]


# the primes that the cohomology completions of the verify rows record
PRIMES = {(2, 2): (2,), (3, 2): (3,), (2, 2, 1): (2,)}


def once(parts, convention="v", order="degrevlex", *, certify=True, member=False,
         primes=(), write=False):
    """One partition read once: completed over Q, its staircase walked and
    judged, its K presentation certified in the convention, and its
    cohomology generators each reduced once by the membership check; then
    completed and walked over F_p at each of the primes (freeness)."""
    gens = tanisaki_generators(Partition(parts)).polynomials() if member else []
    return {
        "complete": [(parts, "y", order, 0)] + [(parts, "y", order, p) for p in primes],
        "walk": [(parts, 0)] + [(parts, p) for p in primes],
        "certify": [(parts, convention)] * certify,
        "judge": [parts],
        "member": [parts] * member,
        "reduce": [(parts, g) for g in gens],
        "write": [(parts, "cohomology", "y", order), (parts, "ktheory", convention, order)]
                 * write,
    }


def each(partitions, *args, expand, verify=False, **kwargs):
    """`once` for each partition, in turn, and the number of e_k expansions
    (`ideals._line_terms` misses); verify runs every suite, so it checks
    membership and freeness."""
    book = {column: [] for column in COLUMNS}
    book["expand"] = expand
    for parts in partitions:
        if verify:
            kwargs.update(member=True, primes=PRIMES.get(parts, ()))
        for column, calls in once(parts, *args, **kwargs).items():
            book[column] += calls
    return book


def flags(convention, order):
    return ("--convention", convention, "--order", order)


CACHE = "<cache-dir>"  # a fresh directory per row
V1V2 = variables(3)[0] * variables(3)[1]  # gamma^2 of [L_1] + [L_2] - 2, in v

ROWS = [
    # whatever the flags, each partition is completed over Q, walked, judged
    # and certified once; verify adds its membership check and the F_2
    # completion and walk of (2,2)
    *[row for c in "uv" for o in ("degrevlex", "deglex", "lex") for row in [
        (("presentation", "--partition", "2,2", "--flavor", "both", *flags(c, o)),
         each([(2, 2)], c, o, expand={"u": 21, "v": 12}[c])),
        (("verify", "--partition", "2,2", "--n", "3", *flags(c, o)),
         each([(2, 2), *of(3)], c, o, verify=True, expand={"u": 40, "v": 24}[c])),
        (("gamma", "--partition", "2,1", "--subset", "1,2", "--d", "2", *flags(c, o)),
         {**each([(2, 1)], c, o, expand={"u": 13, "v": 6}[c]), "reduce": [((2, 1), V1V2)]}),
        (("sweep", "--n", "4", *flags(c, o)), each(of(4), c, o, expand={"u": 47, "v": 32}[c]))]],
    (("verify", "--n", "3"), each(of(3), verify=True, expand=12)),
    (("verify", "--n", "4"), each(of(4), verify=True, expand=32)),
    (("verify", "--n", "4", *flags("u", "lex")), each(of(4), "u", "lex", verify=True, expand=47)),
    (("verify", "--n", "5", "--order", "deglex", "--convention", "u"),
     each(of(5), "u", "deglex", verify=True, expand=111)),
    (("verify", "--partition", "2,2"), each([(2, 2)], verify=True, expand=12)),
    (("verify", "--n", "3", "--suite", "gamma", "--suite", "lambda"),
     each(of(3), member=True, expand=12)),
    (("verify", "--n", "4", "--suite", "filtration", *flags("u", "lex")),
     each(of(4), "u", "lex", expand=47)),
    # cohomology alone reads no K basis, so nothing is certified
    (("verify", "--partition", "2,2", "--suite", "freeness"),
     each([(2, 2)], certify=False, primes=(2,), expand=12)),
    (("verify", "--n", "3", "--convention", "u", "--cache-dir", CACHE),
     each(of(3), "u", verify=True, write=True, expand=19)),
    (("presentation", "--partition", "2,1", "--flavor", "both"), each([(2, 1)], expand=6)),
    (("presentation", "--partition", "2,2", "--flavor", "both", "--convention", "u"),
     each([(2, 2)], "u", expand=21)),
    (("presentation", "--partition", "3,2,1", "--flavor", "both"), each([(3, 2, 1)], expand=39)),
    *[(("presentation", "--partition", "3,2,1", "--flavor", "both", *flags(c, o)),
       each([(3, 2, 1)], c, o, expand={"u": 118, "v": 39}[c]))
      for c, o in [("u", "degrevlex"), ("v", "lex"), ("u", "lex")]],
    (("presentation", "--partition", "3,2,1", "--flavor", "cohomology"),
     each([(3, 2, 1)], certify=False, expand=39)),
    (("sweep", "--n", "3"), each(of(3), expand=12)),
    (("sweep", "--n", "6", "--order", "lex"), each(of(6), order="lex", expand=192)),
    # past the sweep's completion cap, and the rank lemma reads no ideal
    (("sweep", "--n", "7"), each([], expand=448)),
    (("rank-lemma", "--n", "8"), each([], expand=0)),
    (("verify", "--n", "8", "--suite", "rank-lemma"), each([], expand=0)),
]


@pytest.mark.parametrize("argv, expected", ROWS, ids=[" ".join(argv) for argv, _ in ROWS])
def test_row(ledger, capsys, tmp_path, argv, expected):
    jobs = argv[argv.index("--jobs") + 1] if "--jobs" in argv else "1"
    assert int(jobs) <= 1, "the ledger cannot see calls made in worker processes"
    ideals._line_terms.cache_clear()
    assert cli.main([str(tmp_path) if a == CACHE else a for a in argv]) == 0
    capsys.readouterr()
    assert {**ledger.book, "expand": ideals._line_terms.cache_info().misses} == expected
    assert ledger.steps == [1] * len(ledger.book["reduce"])
    # a basis that outlives its call survives a collection too
    if any(ref() is not None for ref in ledger.completed):
        gc.collect()
    assert [ref for ref in ledger.completed if ref() is not None] == []
