"""Reference answers for type-A Springer fibres, computed without `tanisaki`.

- rank: the multinomial n! / (mu_1! ... mu_k!);
- Hilbert series: the Garsia-Procesi recursion (Adv. Math. 94, 1992)
  F_mu(q) = sum_i q^(i-1) F_{mu lowered at i}(q), with F of a partition of
  1 equal to 1; its degree is the Springer dimension sum_i (i-1) mu_i;
- rank of the k-th power of a nilpotent Jordan matrix of type mu:
  sum_i max(mu_i - k, 0).

`check_report` compares one CLI report with these answers and returns the
list of disagreements (empty when the report is right).
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, factorial

ALL_SUITES = ("rank-lemma", "gamma", "lambda", "truncation", "filtration", "freeness", "stability")


def partitions_of(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in reverse-lexicographic order: (n) first, (1^n) last."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first, *rest) for first in range(top, 0, -1) for rest in partitions_of(n - first, first)]


def multinomial_rank(mu) -> int:
    rank = factorial(sum(mu))
    for part in mu:
        rank //= factorial(part)
    return rank


@lru_cache(maxsize=None)
def hilbert_series(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Garsia-Procesi Hilbert series of the cohomology ring, lowest degree first."""
    if sum(mu) <= 1:
        return (1,)
    series: list[int] = []
    for i in range(len(mu)):
        lowered = sorted((*mu[:i], mu[i] - 1, *mu[i + 1:]), reverse=True)
        tail = hilbert_series(tuple(p for p in lowered if p))
        series += [0] * (i + len(tail) - len(series))
        for d, c in enumerate(tail):
            series[i + d] += c
    return tuple(series)


def jordan_rank(mu, k: int) -> int:
    return sum(max(part - k, 0) for part in mu)


def _dim_graded(n: int, d: int) -> int:
    return comb(d + n - 1, n - 1)


def _argv_values(argv, flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == flag]


def _partitions_asked(argv) -> list[tuple[int, ...]]:
    mus = [tuple(int(x) for x in text.split(",")) for text in _argv_values(argv, "--partition")]
    for n in _argv_values(argv, "--n"):
        mus += partitions_of(int(n))
    return mus


def _check_partition_block(mu, result, problems):
    series = hilbert_series(mu)
    if tuple(result.get("partition", ())) != mu:
        problems.append(f"{mu}: report is for partition {result.get('partition')}")
        return
    if result.get("rank") != multinomial_rank(mu):
        problems.append(f"{mu}: rank {result.get('rank')} != {multinomial_rank(mu)}")
    if result.get("dimension") != len(series) - 1:
        problems.append(f"{mu}: dimension {result.get('dimension')} != {len(series) - 1}")
    if result.get("ok") is not True:
        problems.append(f"{mu}: result not ok")


def _check_presentation(mu, result, problems):
    rank = multinomial_rank(mu)
    flavors = [blk.get("flavor") for blk in result.get("presentations", [])]
    if flavors != ["cohomology", "ktheory"]:
        problems.append(f"{mu}: presentations {flavors}")
    for blk in result.get("presentations", []):
        if blk.get("quotient_rank") != rank or len(blk.get("standard_monomials", ())) != rank:
            problems.append(f"{mu} {blk.get('flavor')}: quotient rank {blk.get('quotient_rank')} != {rank}")
        if blk.get("flavor") == "cohomology" and tuple(blk.get("hilbert_series", ())) != hilbert_series(mu):
            problems.append(
                f"{mu}: Hilbert series {blk.get('hilbert_series')} != {list(hilbert_series(mu))}"
            )


def _check_suites(mu, suites_asked, result, problems):
    suites = result.get("suites", {})
    if sorted(suites) != sorted(suites_asked):
        problems.append(f"{mu}: suites {sorted(suites)} != {sorted(suites_asked)}")
    for name, doc in suites.items():
        if doc.get("ok") is not True:
            problems.append(f"{mu}: suite {name} not ok")
    n = sum(mu)
    series = hilbert_series(mu)

    def h(d):
        return series[d] if d < len(series) else 0

    # Parts of the suite reports that restate a reference answer are checked
    # where the report carries them.
    for row in suites.get("rank-lemma", {}).get("rows", []):
        want = jordan_rank(mu, n - row["s"])
        if row["jordan_rank"] != want or row["p_dual"] != want:
            problems.append(f"{mu}: rank-lemma row {row} != {want}")
    for row in suites.get("filtration", {}).get("rows", []):
        d = row["d"]
        if row["dim_S"] - row["dim_ideal"] != h(d) or row["dim_gr"] != row["dim_ideal"]:
            problems.append(f"{mu}: filtration row {row} disagrees with Hilbert coefficient {h(d)}")
    for row in suites.get("freeness", {}).get("degrees", []):
        d = row["d"]
        if row["rank"] != _dim_graded(n, d) - h(d) or row["nonunit_factors"]:
            problems.append(f"{mu}: freeness degree {row} disagrees with Hilbert coefficient {h(d)}")


def check_report(argv, returncode: int, stdout: bytes) -> list[str]:
    """Disagreements between one CLI report and the reference answers."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []
    if doc.get("ok") is not True:
        problems.append("report not ok")
    mus = _partitions_asked(argv)
    results = doc.get("results", [])
    if len(results) != len(mus):
        return problems + [f"{len(results)} results for {len(mus)} partitions"]
    command = argv[0]
    suites_asked = _argv_values(argv, "--suite") or list(ALL_SUITES)
    for mu, result in zip(mus, results):
        _check_partition_block(mu, result, problems)
        if command == "presentation":
            _check_presentation(mu, result, problems)
        elif command == "verify":
            _check_suites(mu, suites_asked, result, problems)
    return problems
