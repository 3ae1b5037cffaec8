"""Exterior-power and gamma operations on virtual classes of line bundles.

A virtual class here is a formal sum of line-class variables plus an integer
multiple of the trivial class; the splitting rules (the series of a sum is
the product of the series, a line class contributes 1 + u t, a trivial rank
k contributes (1+t)^k with the generalized-binomial extension for k < 0)
then determine every exterior-power coefficient exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groebner import GroebnerBasis, normal_form
from .partitions import Partition, PartitionError, check_subset, enumerate_subsets
from .polynomial import Polynomial, binomial


@dataclass(frozen=True)
class VirtualClass:
    """sum of [L_i] over a line-index multiset, plus an integer rank shift."""

    n: int
    lines: tuple[int, ...]
    shift: int = 0

    def __post_init__(self):
        lines = tuple(sorted(int(i) for i in self.lines))
        for i in lines:
            if not 1 <= i <= self.n:
                raise PartitionError(f"line index {i} out of range 1..{self.n}")
        object.__setattr__(self, "lines", lines)

    def shifted(self, delta: int) -> "VirtualClass":
        return VirtualClass(self.n, self.lines, self.shift + delta)

    def as_polynomial(self) -> Polynomial:
        acc = Polynomial.constant(self.n, self.shift)
        for i in self.lines:
            acc = acc + Polynomial.variable(self.n, i)
        return acc


@lru_cache(maxsize=None)
def _line_product(n: int, lines: tuple[int, ...]) -> tuple[Polynomial, ...]:
    """The coefficients of prod_{i in lines} (1 + u_i t), from t^0 to
    t^len(lines), expanded once per line multiset by the splitting rule."""
    coeffs = [Polynomial.constant(n, 1)] + [Polynomial.zero(n)] * len(lines)
    for i in lines:
        u = Polynomial.variable(n, i)
        for k in range(len(lines), 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * u
    return tuple(coeffs)


def _lambda_coefficient(x: VirtualClass, k: int, convention: str = "u") -> Polynomial:
    """lambda^k(x), the t^k coefficient of prod_i (1 + u_i t) * (1 + t)^shift:
    sum_j C(shift, k - j) times the t^j coefficient of the line product.

    In the v-convention, u_i = 1 + v_i turns the series into
    (1 + t)^(len + shift) * prod_i (1 + v_i t/(1 + t)), so the weight of the
    t^j coefficient of the line product (now in v) is C(len + shift - j, k - j).
    """
    product = _line_product(x.n, x.lines)
    in_v = convention == "v"
    terms = {}
    for j in range(min(k, len(x.lines)) + 1):
        w = binomial(x.shift + in_v * (len(x.lines) - j), k - j)
        if w:
            # product[j] is homogeneous of degree j, so no two j share a monomial
            for m, c in product[j].terms.items():
                terms[m] = c * w
    return Polynomial._of(x.n, terms)


def lambda_series(x: VirtualClass, truncation: int) -> list[Polynomial]:
    """Exterior-power coefficients lambda^0(x) .. lambda^truncation(x).

    The full series is prod_i (1 + u_i t) * (1 + t)^shift; a negative shift
    expands as a power series with generalized binomial coefficients.
    """
    if truncation < 0:
        raise PartitionError(f"truncation must be >= 0, got {truncation}")
    return [_lambda_coefficient(x, k) for k in range(truncation + 1)]


def gamma_op(x: VirtualClass, d: int, convention: str = "u") -> Polynomial:
    """gamma^d(x), computed as lambda^d(x + d - 1), in the variables of the
    convention.

    The substitution t -> t/(1-t) expands t^k (1-t)^(-k) with weight
    C(d-1, k-1) at t^d, so gamma^d(x) = sum_k C(d-1, k-1) lambda^k(x); the
    property tests check that this expansion agrees with the shifted form.
    """
    if d < 0:
        raise PartitionError(f"gamma index must be >= 0, got {d}")
    if d == 0:
        return Polynomial.constant(x.n, 1)
    return _lambda_coefficient(x.shifted(d - 1), d, convention)


# -- relation sweeps -----------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
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


def _convention(gb: GroebnerBasis) -> str:
    """The variables the basis is written in: v for a v-convention source."""
    return "v" if gb.source is not None and gb.source.convention == "v" else "u"


def _sweep(partition: Partition, gb: GroebnerBasis, kind: str, extra: int = 2) -> RelationReport:
    n = partition.n
    dual = partition.dual()
    convention = _convention(gb)
    rows = []
    ok = True
    for s in range(1, n + 1):
        q = dual.p_function(s)
        for subset in enumerate_subsets(n, s):
            for d in range(s + 1 - q, s + extra + 1):
                if kind == "gamma":
                    poly = gamma_op(VirtualClass(n, subset, -s), d, convention)
                else:
                    poly = _lambda_coefficient(VirtualClass(n, subset, -q), d, convention)
                vanished = normal_form(poly, gb).is_zero()
                rows.append((subset, d, vanished))
                ok = ok and vanished
    return RelationReport(partition, kind, tuple(rows), ok)


def verify_gamma_relations(partition: Partition, gb: GroebnerBasis) -> RelationReport:
    """gamma^d(sum [L_i] - s) must die in the quotient for every subset and
    every d from s+1-q through s+2 (the overhang exercises the truncation)."""
    return _sweep(partition, gb, "gamma")


def equivalent_lambda_relations(partition: Partition, gb: GroebnerBasis) -> RelationReport:
    """The equivalent exterior-power form lambda^d(sum [L_i] - q) = 0."""
    return _sweep(partition, gb, "lambda")


def gamma_membership(partition: Partition, gb: GroebnerBasis, subset, d: int):
    """One gamma relation: returns (polynomial in u, normal form, vanished)."""
    n = partition.n
    subset = check_subset(subset, n)
    x = VirtualClass(n, subset, -len(subset))
    poly = gamma_op(x, d)
    convention = _convention(gb)
    nf = normal_form(poly if convention == "u" else gamma_op(x, d, convention), gb)
    return poly, nf, nf.is_zero()
