"""Tanisaki ideal and K-theoretic Tanisaki ideal generator construction.

Both ideals are produced as explicit generator lists with provenance: which
(subset, d, q) triple produced each polynomial.  The cohomology flavor lives
in Z[y_1..y_n], the K-theory flavor in Z[u_1..u_n] or, after the unit shift
v_j = u_j - 1, in Z[v_1..v_n].  Every K-relation, the generators h_d, the
truncation certificates and the lambda/gamma operations of `lambda_ring`, is
one exterior-power coefficient built by `lambda_coefficient`, the one place
that expands the line product and weights it for the convention; the
cohomology generators e_d are its unshifted coefficients.

In v the two presentations are one ideal.  For a size-s subset S with
q = p_dual(s) and d in the kept window s+1-q..s,

    h_d(v_S) = sum_{k = s+1-q}^{d} C(s-q-k, d-k) e_k(v_S),

since the weight of e_k(v_S) vanishes for k <= s-q < d.  The k = d weight
is 1, so over each subset's kept window the K(v) generators are a
unitriangular integer matrix times the cohomology generators: the K(v)
ideal is the Tanisaki ideal written in v, over Z and modulo every prime,
and K(u) is its image under v_i = u_i - 1; `k_certificate` checks both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .partitions import Partition, PartitionError, check_subset, enumerate_subsets
from .polynomial import Polynomial, binomial

COHOMOLOGY = "cohomology"
KTHEORY = "ktheory"


class GeneratorRecord(NamedTuple):
    poly: Polynomial
    subset: tuple[int, ...]
    d: int
    q: int


class IdealPresentation(NamedTuple):
    partition: Partition
    flavor: str
    convention: str  # "y" | "u" | "v"
    generators: tuple[GeneratorRecord, ...]

    @property
    def n(self) -> int:
        return self.partition.n

    def polynomials(self) -> list[Polynomial]:
        return [g.poly for g in self.generators]


def relation_grid(partition: Partition):
    """Each nonempty subset of the n lines, size by size, with q = p_dual(s)."""
    dual = partition.dual()
    for s in range(1, partition.n + 1):
        q = dual.p_function(s)
        for subset in enumerate_subsets(partition.n, s):
            yield subset, q


def kept_degrees(s: int, q: int) -> range:
    """The kept window d = s+1-q..s of a size-s subset.  It starts at d >= 1:
    q, the sum of the s smallest dual parts, is at most s."""
    return range(s + 1 - q, s + 1)


def extra_degrees(s: int) -> tuple[int, int]:
    """d = s+1 and s+2, past the window, which sweeps and certificates check."""
    return s + 1, s + 2


def _presentation(partition: Partition, flavor: str, convention: str, poly) -> IdealPresentation:
    """One generator poly(subset, d, q) per (subset, q) of the relation grid
    and d in its kept window.  For d >= 1 distinct (subset, d) pairs have
    distinct top-degree forms e_d(subset), so no generator repeats."""
    return IdealPresentation(partition, flavor, convention, tuple(
        GeneratorRecord(poly(subset, d, q), subset, d, q)
        for subset, q in relation_grid(partition) for d in kept_degrees(len(subset), q)))


def tanisaki_generators(partition: Partition) -> IdealPresentation:
    """Cohomology-flavor generators e_d(y-subset) for d >= s + 1 - p_dual(s).

    Generators with d > s are identically zero and omitted; the d-range is
    bounded above by s, which loses nothing for homogeneous generators.
    e_d(subset) is lambda^d of the subset's lines, unshifted.
    """
    return _presentation(partition, COHOMOLOGY, "y",
                         lambda subset, d, q: lambda_coefficient(partition.n, subset, 0, d))


@lru_cache(maxsize=None)
def _line_terms(n: int, lines: tuple[int, ...], k: int) -> dict:
    """e_k of the line multiset as {exponent tuple: coefficient}, kept per
    (n, lines, k): a run's generators, sweeps and certificates reread them."""
    terms = {}
    for chosen in combinations(lines, k):
        e = [0] * n
        for i in chosen:
            e[i - 1] += 1
        m = tuple(e)
        terms[m] = terms.get(m, 0) + 1
    return terms


def lambda_coefficient(n: int, lines, shift: int, d: int, convention: str = "u") -> Polynomial:
    """lambda^d(sum_{i in lines} [L_i] + shift), in the variables of the
    convention; lines is a tuple of 1-based indices, repeats allowed.
    Nothing is checked.

    lambda^d is the t^d coefficient of prod_i (1 + u_i t) * (1 + t)^shift, so
    in u-variables it is sum_k e_k(u_lines) * C(shift, d - k).  Substituting
    u_i = 1 + v_i turns the series into
    (1 + t)^(shift + len) * prod_i (1 + v_i t/(1 + t)), so in v-variables the
    weight of e_k(v_lines) is C(shift + len - k, d - k).  Every K-relation is
    one such coefficient: h_d = lambda^d(sum_S [L_i] - q), and
    `lambda_ring.gamma_op` writes gamma^d as one.
    """
    r = len(lines)
    in_v = convention == "v"
    terms = {}
    for k in range(min(d, r) + 1):
        w = binomial(shift + in_v * (r - k), d - k)
        if w:
            # e_k is homogeneous of degree k, so the summands never share a monomial
            for m, c in _line_terms(n, lines, k).items():
                terms[m] = c * w
    return Polynomial._of(n, terms)


def k_tanisaki_generators(partition: Partition, convention: str = "u") -> IdealPresentation:
    """K-theory-flavor generators h_d over the same (s, subset, d) grid,
    written in the variables of the convention."""
    if convention not in ("u", "v"):
        raise PartitionError(f"convention must be 'u' or 'v', got {convention!r}")
    n = partition.n
    return _presentation(partition, KTHEORY, convention,
                         lambda subset, d, q: lambda_coefficient(n, subset, -q, d, convention))


def k_certificate(cohomology: IdealPresentation, ktheory: IdealPresentation):
    """The first (subset, d) at which ktheory (in u: after u_i = v_i + 1) is
    not the unitriangular image of the cohomology presentation, or None.

    Each record (S, d, q) of ktheory must have d in its kept window and a
    polynomial whose terms in v are those of sum_k C(s-q-k, d-k) e_k over
    the built cohomology records (S, k), k = s+1-q..d; a missing (S, k)
    fails at (S, d).  A cohomology record with no K record of its (S, d)
    fails at that (S, d).  Every subset is checked: nothing is assumed of
    the K builder, and its convention label only names the variables.
    """
    e = {(g.subset, g.d): g.poly for g in cohomology.generators}
    unmatched = dict.fromkeys(e)
    for g in ktheory.generators:
        s = len(g.subset)
        window = kept_degrees(s, g.q)
        if g.d not in window:
            return g.subset, g.d
        unmatched.pop((g.subset, g.d), None)
        terms = {}
        for k in range(window.start, g.d + 1):
            ek = e.get((g.subset, k))
            if ek is None:
                return g.subset, g.d
            w = binomial(s - g.q - k, g.d - k)
            for m, c in ek.terms.items():
                terms[m] = terms.get(m, 0) + w * c
        in_v = g.poly.shift_variables(1) if ktheory.convention == "u" else g.poly
        if {m: c for m, c in terms.items() if c} != in_v.terms:
            return g.subset, g.d
    return next(iter(unmatched), None)


def truncation_certificate(partition: Partition, subset) -> list[dict]:
    """Express h_{s+1} and h_{s+2} as integer combinations of the kept h_d,
    written in v.

    The coefficient of t^m in prod(1 + u_i t) is e_m(subset), which vanishes
    for m > s; multiplying the defining series by (1+t)^q therefore yields
    sum_{k=0..q} C(q, k) h_{m-k} = 0 for m > s, so the out-of-range relations
    cascade back into the kept window [s+1-q, s].  The recurrence is linear,
    so the same combination holds in u, after v_i = u_i - 1.
    """
    n = partition.n
    subset = check_subset(subset, n)
    s = len(subset)
    q = partition.dual().p_function(s)
    kept = {d: lambda_coefficient(n, subset, -q, d, "v") for d in kept_degrees(s, q)}
    combos = {d: {d: 1} for d in kept}  # m -> {kept d: integer coefficient}
    out = []
    for m in extra_degrees(s):
        combo: dict[int, int] = {}
        for k in range(1, q + 1):
            # m - k >= m - q lies in the kept window or is s + 1, already combined
            for d, c in combos[m - k].items():
                combo[d] = combo.get(d, 0) - comb(q, k) * c
        combo = {d: c for d, c in combo.items() if c}
        combos[m] = combo
        h = Polynomial.zero(n)
        for d, c in combo.items():
            h = h + kept[d] * c
        if h != lambda_coefficient(n, subset, -q, m, "v"):
            raise RuntimeError(f"truncation recurrence failed for subset {subset}, m={m}")
        out.append({"m": m, "h": h, "combination": combo})
    return out
