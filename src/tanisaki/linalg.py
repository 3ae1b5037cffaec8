"""Exact linear algebra: the verdicts of the filtration and freeness
checks, the rank lemma, and the slice route that cross-checks them.

This module never imports the Groebner engine.  The filtration and freeness
checks receive staircase series (standard monomials per degree) from their
caller and judge them: the filtration check against the Garsia-Procesi
series of the partition, computed from the partition alone, and the
freeness check against the staircases of the same generators over F_p for
the primes the integer completion divided by.  Neither builds a Macaulay
matrix.

There is one elimination route: unimodular +-1 pivots (`_unit_pivots`)
and then a dense Smith-normal-form residual (`smith_normal_form`).  It ranks
the sparse Jordan powers of the rank lemma, and it serves the slice route
that stays as a cross-check for small n: `_slice` builds the degree-d slice
of a homogeneous ideal (every generator times every monomial of the
complementary degree) and eliminates it afresh on every call.  Its rank is
`ideal_degree_rank`, and its non-unit invariant factors are the torsion of
the quotient in degree d.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import comb
from operator import add

from .ideals import IdealPresentation
from .partitions import Partition, garsia_procesi_series
from .polynomial import Polynomial


# -- Smith normal form --------------------------------------------------


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix (zeros dropped)."""
    A = [[int(v) for v in row] for row in matrix]
    R = len(A)
    C = len(A[0]) if R else 0
    t = 0
    while True:
        # smallest-magnitude nonzero pivot in the trailing submatrix
        best = None
        for r in range(t, R):
            for c in range(t, C):
                v = A[r][c]
                if v and (best is None or abs(v) < abs(A[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        r0, c0 = best
        A[t], A[r0] = A[r0], A[t]
        if c0 != t:
            for row in A:
                row[t], row[c0] = row[c0], row[t]
        while True:
            # clear the pivot column
            dirty = False
            for r in range(R):
                if r != t and A[r][t]:
                    q = A[r][t] // A[t][t]
                    if q:
                        At = A[t]
                        Ar = A[r]
                        for c in range(t, C):
                            Ar[c] -= q * At[c]
                    if A[r][t]:  # remainder smaller than pivot: promote it
                        A[t], A[r] = A[r], A[t]
                        dirty = True
                        break
            if dirty:
                continue
            # clear the pivot row
            for c in range(C):
                if c != t and A[t][c]:
                    q = A[t][c] // A[t][t]
                    if q:
                        for row in A:
                            row[c] -= q * row[t]
                    if A[t][c]:
                        for row in A:
                            row[t], row[c] = row[c], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            for r in range(t + 1, R):
                for c in range(t + 1, C):
                    if A[r][c] % A[t][t]:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            Ao = A[offender]
            At = A[t]
            for c in range(C):
                At[c] += Ao[c]
        t += 1
    return [abs(A[i][i]) for i in range(t)]


def _unit_pivots(rows) -> tuple[int, list[dict[int, int]]]:
    """Eliminate with +-1 pivots: (number of pivots, residual rows).

    Each step takes the shortest live row that has a unit entry (smallest
    row index on ties) and clears its smallest unit column from every other
    row.  These are unimodular row operations, so the pivots contribute
    invariant factors 1 and the residual rows, which vanish in every pivot
    column, carry the rest of the rank and of the Smith form.  Candidates
    come from a lazy heap of (length, row index): a row is pushed again
    whenever it changes, and stale entries or rows without a unit are
    skipped when popped.
    """
    live = {}
    col_index: dict[int, set[int]] = {}
    for rid, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[rid] = row
            for c in row:
                col_index.setdefault(c, set()).add(rid)
    heap = [(len(row), rid) for rid, row in live.items()]
    heapq.heapify(heap)
    ones = 0
    while heap:
        size, rid = heapq.heappop(heap)
        piv = live.get(rid)
        if piv is None or len(piv) != size:
            continue  # picked or changed since this entry was pushed
        units = [c for c, v in piv.items() if v in (1, -1)]
        if not units:
            continue  # pushed again if an elimination changes it
        c = min(units)
        del live[rid]
        for col in piv:
            col_index[col].discard(rid)
        s = piv[c]
        for other in list(col_index[c]):
            row = live[other]
            f = row[c] * s  # piv[c] = +-1, so the multiplier is exact
            for col, v in piv.items():
                w = row.get(col, 0) - f * v
                if w:
                    if col not in row:
                        col_index.setdefault(col, set()).add(other)
                    row[col] = w
                else:
                    row.pop(col, None)
                    col_index[col].discard(other)
            if row:
                heapq.heappush(heap, (len(row), other))
            else:
                del live[other]
        ones += 1
    return ones, [live[rid] for rid in sorted(live)]


def _invariant_factors_sparse(rows) -> list[int]:
    """Invariant factors via the unit-pivot sparse phase + dense residual."""
    ones, residual = _unit_pivots(rows)
    factors = [1] * ones
    if residual:
        cols = sorted({c for row in residual for c in row})
        pos = {c: i for i, c in enumerate(cols)}
        dense = []
        for row in residual:
            drow = [0] * len(cols)
            for c, v in row.items():
                drow[pos[c]] = v
            dense.append(drow)
        factors += smith_normal_form(dense)
    return factors


# -- monomial bookkeeping ------------------------------------------------


def monomials_of_degree(n: int, d: int):
    """All exponent vectors of total degree d, first variable heaviest first."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - e):
            yield (e,) + rest


def dim_graded_piece(n: int, d: int) -> int:
    return comb(d + n - 1, n - 1)


# -- degreewise ideal ranks ----------------------------------------------


def _shifted_rows(poly: Polynomial, shifts, cols):
    """Yield poly * m as a row {cols[monomial]: int coefficient} per shift m."""
    items = [(pm, int(c)) for pm, c in poly.terms.items()]
    for m in shifts:
        yield {cols[tuple(map(add, pm, m))]: c for pm, c in items}


def _slice(pres: IdealPresentation, d: int) -> tuple[int, tuple[int, ...]]:
    """(rank, invariant factors other than 1) of the degree-d slice of a
    homogeneous ideal: the rows g * m over every generator g and every
    monomial m of degree d - deg g, eliminated by unit pivots and a Smith
    residual.  The only place slice rows are built."""
    n = pres.n
    cols = {m: i for i, m in enumerate(monomials_of_degree(n, d))}
    rows = []
    for rec in pres.generators:
        poly = rec.poly
        e = poly.degree()
        if e < 0 or e > d:
            continue
        if any(sum(m) != e for m in poly.terms):
            raise ValueError("ideal_degree_rank requires homogeneous generators")
        rows.extend(_shifted_rows(poly, monomials_of_degree(n, d - e), cols))
    factors = _invariant_factors_sparse(rows)
    return len(factors), tuple(f for f in factors if f != 1)


def ideal_degree_rank(pres: IdealPresentation, d: int) -> int:
    """Rank of the degree-d slice of a homogeneous ideal: the number of
    invariant factors of its elimination."""
    return _slice(pres, d)[0]


# -- Jordan form and the rank lemma ---------------------------------------


def jordan_matrix(partition: Partition) -> list[list[int]]:
    """Block-diagonal nilpotent matrix with the partition's block sizes."""
    n = partition.n
    mat = [[0] * n for _ in range(n)]
    offset = 0
    for p in partition.parts:
        for i in range(p - 1):
            mat[offset + i][offset + i + 1] = 1
        offset += p
    return mat


@dataclass(frozen=True)
class RankLemmaReport:
    partition: Partition
    rows: tuple[tuple[int, int, int], ...]  # (s, p_dual(s), rank of J^(n-s))
    ok: bool

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "rows": [{"s": s, "p_dual": p, "jordan_rank": r} for s, p, r in self.rows],
            "ok": self.ok,
        }


def verify_rank_lemma(partition: Partition) -> RankLemmaReport:
    """Check p_dual(s) == rank(J^(n-s)) for every s in 1..n.  The powers
    of J are kept as sparse rows {col: value} and ranked by elimination."""
    n = partition.n
    dual = partition.dual()
    jrows = [{c: v for c, v in enumerate(row) if v} for row in jordan_matrix(partition)]
    power = [{i: 1} for i in range(n)]  # J^0
    ranks = [0] * (n + 1)  # ranks[k] = rank(J^k)
    for k in range(n + 1):
        ranks[k] = len(_invariant_factors_sparse(power))
        if k < n:
            nxt = []
            for row in power:
                acc = {}
                for c, v in row.items():
                    for j, w in jrows[c].items():
                        acc[j] = acc.get(j, 0) + v * w
                nxt.append({j: v for j, v in acc.items() if v})
            power = nxt
    rows = []
    ok = True
    for s in range(1, n + 1):
        p = dual.p_function(s)
        r = ranks[n - s]
        rows.append((s, p, r))
        ok = ok and p == r
    return RankLemmaReport(partition, tuple(rows), ok)


# -- integral freeness -----------------------------------------------------


@dataclass(frozen=True)
class FreenessReport:
    partition: Partition
    # (d, rank of the ideal slice, torsion primes: p once per p-primary summand)
    degrees: tuple[tuple[int, int, tuple[int, ...]], ...]
    ok: bool

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "degrees": [
                {"d": d, "rank": r, "nonunit_factors": list(f)} for d, r, f in self.degrees
            ],
            "ok": self.ok,
        }


def _count(series, d: int) -> int:
    """series[d], and 0 past its end."""
    return series[d] if d < len(series) else 0


def integral_freeness_check(partition: Partition, series, modular) -> FreenessReport:
    """Check that the cohomology quotient M = Z[y]/I is Z-free, from a prime
    certificate of the integer completion of I.

    series[d] counts the degree-d standard monomials of I over Q, so the
    ideal slice has rank dim S_d - series[d].  modular maps each prime p the
    integer completion divided by to the staircase series, through degree
    dim + 1, of the same generators completed over F_p.  At every other prime
    the completion is valid over Z_(p), so M_(p) is free on the staircase.  At
    p in modular, dim (M/pM)_d = series[d] + the number of p-primary summands
    of M_d, so each excess count is a torsion summand, listed as p in degree
    d for d = 1..dim + 1.
    """
    n = partition.n
    degrees = []
    for d in range(1, partition.springer_dimension() + 2):
        torsion = []
        for p in sorted(modular):
            excess = _count(modular[p], d) - _count(series, d)
            if excess < 0:
                raise ValueError(f"F_{p} staircase below the rational one in degree {d}")
            torsion += [p] * excess
        degrees.append((d, dim_graded_piece(n, d) - _count(series, d), tuple(torsion)))
    return FreenessReport(partition, tuple(degrees), not any(t for _, _, t in degrees))


# -- the filtration comparison ---------------------------------------------


@dataclass(frozen=True)
class FiltrationReport:
    partition: Partition
    rows: tuple[tuple[int, int, int, int], ...]  # (d, dim S_d, dim I_d, dim gr_d)
    verdict: bool
    mismatch_degree: int | None = None
    findings: tuple[str, ...] = field(default=())

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "rows": [
                {"d": d, "dim_S": s, "dim_ideal": i, "dim_gr": g}
                for d, s, i, g in self.rows
            ],
            "verdict": "pass" if self.verdict else "fail",
            "ok": self.verdict,
            "mismatch_degree": self.mismatch_degree,
            "findings": list(self.findings),
        }


def filtration_check(partition: Partition, coh_series, k_series) -> FiltrationReport:
    """Compare the degree filtration of the K-ideal against the cohomology
    ideal, both read from staircases and both checked against Garsia-Procesi.

    coh_series[d] is the number of degree-d standard monomials of the
    cohomology ideal, and k_series[d] that of the K-ideal in the v-convention
    under a degree-compatible order (degrevlex); degrees past a series' end
    count 0.  For such an order the leading monomial of f is that of its
    top-degree form, so in(I) = in(gr I) and the gr column is
    dim S_d - k_series[d]; the ideal column is dim S_d - coh_series[d].  Per
    degree both must equal dim S_d - GP_d, GP the Garsia-Procesi series, and
    the cumulative quotient rank must equal the multinomial rank.
    """
    n = partition.n
    top = partition.springer_dimension() + 1
    gp = garsia_procesi_series(partition)
    s_dims = [dim_graded_piece(n, d) for d in range(top + 1)]
    ideal_dims = [s_dims[d] - _count(coh_series, d) for d in range(top + 1)]
    gr_dims = [s_dims[d] - _count(k_series, d) for d in range(top + 1)]
    gp_dims = [s_dims[d] - _count(gp, d) for d in range(top + 1)]
    split = next((d for d in range(top + 1) if gr_dims[d] != ideal_dims[d]), None)
    mismatch = next(
        (d for d in range(top + 1) if not ideal_dims[d] == gr_dims[d] == gp_dims[d]), None
    )

    findings = []
    if split is not None:
        findings.append(
            f"degree {split}: gr dimension {gr_dims[split]} != ideal rank {ideal_dims[split]}"
        )
    if mismatch is not None:
        findings.append(
            f"degree {mismatch}: ideal rank {ideal_dims[mismatch]} and gr dimension "
            f"{gr_dims[mismatch]} vs {gp_dims[mismatch]} from the Garsia-Procesi series"
        )
    quotient_total = sum(s_dims[d] - ideal_dims[d] for d in range(top))  # d <= springer dim
    cumulative_ok = (
        quotient_total == partition.multinomial_rank() and ideal_dims[top] == s_dims[top]
    )
    verdict = mismatch is None and cumulative_ok
    if not cumulative_ok:
        findings.append(
            f"cumulative quotient rank {quotient_total} vs multinomial "
            f"{partition.multinomial_rank()}; top-slice ideal rank {ideal_dims[top]} "
            f"vs {s_dims[top]}"
        )
    rows = tuple((d, s_dims[d], ideal_dims[d], gr_dims[d]) for d in range(top + 1))
    return FiltrationReport(
        partition, rows, verdict, mismatch_degree=mismatch, findings=tuple(findings)
    )
