"""Gamma operations and the relation sweeps on classes of line bundles.

A class is x = sum_{i in lines} [L_i] + shift.  Its exterior powers are the
coefficients `ideals.lambda_coefficient` builds, in u or directly in v, and
`gamma_op` is the one place that writes gamma^d as one: the gamma sweep and
the `gamma` command both call it.  The sweeps build every relation in v and
reduce it on a given basis.  No command calls them: `cli` checks the
membership of the cohomology generators instead, which the sweeps'
relations follow from; the tests hold the two routes equal.
"""

from __future__ import annotations

from typing import NamedTuple

from .groebner import GroebnerBasis, normal_form
from .ideals import extra_degrees, kept_degrees, lambda_coefficient, relation_grid
from .partitions import Partition, PartitionError
from .polynomial import Polynomial


def gamma_op(n: int, lines, shift: int, d: int, convention: str = "u") -> Polynomial:
    """gamma^d(x), x = sum_{i in lines} [L_i] + shift, as lambda^d(x + d - 1)
    in the variables of the convention: t -> t/(1-t) weights t^k (1-t)^(-k)
    by C(d-1, k-1) at t^d, so gamma^d(x) = sum_k C(d-1, k-1) lambda^k(x)."""
    if d < 0:
        raise PartitionError(f"gamma index must be >= 0, got {d}")
    return lambda_coefficient(n, lines, shift + d - 1, d, convention)


# -- relation sweeps -----------------------------------------------------


class RelationReport(NamedTuple):
    partition: Partition
    kind: str  # "gamma" | "lambda"
    rows: tuple[tuple[tuple[int, ...], int, bool], ...]  # (subset, d, vanished)
    ok: bool

    def failures(self):
        return [(subset, d) for subset, d, good in self.rows if not good]

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "kind": self.kind,
            "checks": len(self.rows),
            "failures": [{"subset": list(s), "d": d} for s, d in self.failures()],
            "ok": self.ok,
        }


def _sweep(partition: Partition, gb: GroebnerBasis, kind: str) -> RelationReport:
    n = partition.n
    rows = []
    for subset, q in relation_grid(partition):
        s = len(subset)
        for d in (*kept_degrees(s, q), *extra_degrees(s)):
            # gamma^d(x - s), or its equivalent lambda form lambda^d(x - q)
            poly = (gamma_op(n, subset, -s, d, "v") if kind == "gamma"
                    else lambda_coefficient(n, subset, -q, d, "v"))
            rows.append((subset, d, normal_form(poly, gb).is_zero()))
    return RelationReport(partition, kind, tuple(rows), all(good for _, _, good in rows))


def verify_gamma_relations(partition: Partition, gb: GroebnerBasis) -> RelationReport:
    """gamma^d(sum [L_i] - s) must die in the quotient for every subset and
    every d from s+1-q through s+2 (the overhang exercises the truncation)."""
    return _sweep(partition, gb, "gamma")


def equivalent_lambda_relations(partition: Partition, gb: GroebnerBasis) -> RelationReport:
    """The equivalent exterior-power form lambda^d(sum [L_i] - q) = 0."""
    return _sweep(partition, gb, "lambda")
