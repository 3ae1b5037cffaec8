"""Tanisaki ideal and K-theoretic Tanisaki ideal generator construction.

Both ideals are produced as explicit generator lists with provenance: which
(subset, d, q) triple produced each polynomial.  The cohomology flavor lives
in Z[y_1..y_n], the K-theory flavor in Z[u_1..u_n] or, after the unit shift
v_j = u_j - 1, in Z[v_1..v_n].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .partitions import Partition, PartitionError, check_subset, enumerate_subsets
from .polynomial import Polynomial, binomial, elementary_symmetric

COHOMOLOGY = "cohomology"
KTHEORY = "ktheory"


@dataclass(frozen=True)
class GeneratorRecord:
    poly: Polynomial
    subset: tuple[int, ...]
    d: int
    q: int
    flavor: str


@dataclass(frozen=True)
class IdealPresentation:
    partition: Partition
    flavor: str
    convention: str  # "y" | "u" | "v"
    generators: tuple[GeneratorRecord, ...]

    @property
    def n(self) -> int:
        return self.partition.n

    def polynomials(self) -> list[Polynomial]:
        return [g.poly for g in self.generators]


def _d_range(s: int, q: int) -> range:
    """Degrees kept for a size-s subset with q = p_dual(s): max(1, s+1-q)..s."""
    return range(max(1, s + 1 - q), s + 1)


def _presentation(partition: Partition, flavor: str, convention: str, poly) -> IdealPresentation:
    """One generator poly(subset, d, q) per size s, size-s subset and d in
    _d_range(s, q), where q = p_dual(s).

    For d >= 1 distinct (subset, d) pairs have distinct top-degree forms
    e_d(subset), so no generator repeats.
    """
    n = partition.n
    dual = partition.dual()
    records = []
    for s in range(1, n + 1):
        q = dual.p_function(s)
        for subset in enumerate_subsets(n, s):
            for d in _d_range(s, q):
                records.append(GeneratorRecord(poly(subset, d, q), subset, d, q, flavor))
    return IdealPresentation(partition, flavor, convention, tuple(records))


def tanisaki_generators(partition: Partition) -> IdealPresentation:
    """Cohomology-flavor generators e_d(y-subset) for d >= s + 1 - p_dual(s).

    Generators with d > s are identically zero and omitted; the d-range is
    bounded above by s, which loses nothing for homogeneous generators.
    """
    return _presentation(partition, COHOMOLOGY, "y",
                         lambda subset, d, q: elementary_symmetric(partition.n, d, subset))


def h_polynomial(subset, d: int, q: int, n: int, convention: str = "u") -> Polynomial:
    """The degree-d K-relation for a subset with q trivial summands.

    h_d is the t^d coefficient of prod(1 + u_i t) * (1+t)^(-q), so in
    u-variables h_d = sum_{0<=k<=d} e_k(u-subset) * C(-q, d-k).  Substituting
    u_i = 1 + v_i turns the series into (1+t)^(s-q) * prod(1 + v_i t/(1+t)),
    so in v-variables h_d = sum_k e_k(v-subset) * C(s-q-k, d-k).  Its top
    graded piece is e_d(subset) and it vanishes at u = 1 (v = 0) whenever
    d >= s+1-q.
    """
    subset = check_subset(subset, n)
    if d < 1:
        raise PartitionError(f"h polynomial degree must be >= 1, got {d}")
    if q < 0:
        raise PartitionError(f"q must be >= 0, got {q}")
    if convention not in ("u", "v"):
        raise PartitionError(f"convention must be 'u' or 'v', got {convention!r}")
    s = len(subset)
    terms = {}
    for k in range(min(d, s) + 1):
        w = binomial(s - q - k, d - k) if convention == "v" else binomial(-q, d - k)
        if w:
            # e_k is homogeneous of degree k, so the summands never share a monomial
            for m, c in elementary_symmetric(n, k, subset).terms.items():
                terms[m] = c * w
    return Polynomial._of(n, terms)


def k_tanisaki_generators(partition: Partition, convention: str = "u") -> IdealPresentation:
    """K-theory-flavor generators h_d over the same (s, subset, d) grid,
    written in the variables of the convention."""
    if convention not in ("u", "v"):
        raise PartitionError(f"convention must be 'u' or 'v', got {convention!r}")
    return _presentation(partition, KTHEORY, convention,
                         lambda subset, d, q: h_polynomial(subset, d, q, partition.n, convention))


def truncation_certificate(partition: Partition, subset, convention: str = "u") -> list[dict]:
    """Express h_{s+1} and h_{s+2} as integer combinations of the kept h_d,
    written in the variables of the convention.

    The coefficient of t^m in prod(1 + u_i t) is e_m(subset), which vanishes
    for m > s; multiplying the defining series by (1+t)^q therefore yields
    sum_{k=0..q} C(q, k) h_{m-k} = 0 for m > s, so the out-of-range relations
    cascade back into the kept window [s+1-q, s].  The recurrence is linear,
    so the same combination holds in u and in v.
    """
    if convention not in ("u", "v"):
        raise PartitionError(f"convention must be 'u' or 'v', got {convention!r}")
    n = partition.n
    subset = check_subset(subset, n)
    s = len(subset)
    q = partition.dual().p_function(s)
    kept = {d: h_polynomial(subset, d, q, n, convention) for d in _d_range(s, q)}

    # combos[m]: dict d -> integer coefficient over the kept window
    combos: dict[int, dict[int, int]] = {d: {d: 1} for d in kept}
    out = []
    for m in (s + 1, s + 2):
        if q == 0:
            # series is the bare product, h_m = e_m = 0 identically
            out.append({"m": m, "h": Polynomial.zero(n), "combination": {}})
            combos[m] = {}
            continue
        combo: dict[int, int] = {}
        for k in range(1, q + 1):
            lower = m - k
            if lower < max(1, s + 1 - q):
                continue  # e_0-like tail: h_{<=0} never occurs since q <= s
            for d, c in combos[lower].items():
                combo[d] = combo.get(d, 0) - comb(q, k) * c
        combo = {d: c for d, c in combo.items() if c}
        combos[m] = combo
        h = Polynomial.zero(n)
        for d, c in combo.items():
            h = h + kept[d] * c
        if h != h_polynomial(subset, m, q, n, convention):
            raise RuntimeError(
                f"truncation recurrence failed for subset {subset}, m={m}"
            )
        out.append({"m": m, "h": h, "combination": combo})
    return out
