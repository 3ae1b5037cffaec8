"""Exact linear algebra: the verdicts of the rank lemma and of the
filtration and freeness checks, and the slice oracle of the tests.

No command eliminates.  The rank lemma counts the rows of Jordan powers,
which are zero or distinct unit vectors.  The filtration and freeness
checks judge staircase series (standard monomials per degree) that their
caller passes in: against the Garsia-Procesi series of the partition, and
against the staircases of the same generators over F_p for the primes the
integer completion divided by.  This module never imports the Groebner
engine.

The last section is the elimination route (+-1 pivots, then a Smith
residual) and the degree-d slices of an ideal that the tests eliminate on.
"""

from __future__ import annotations

import heapq
from math import comb
from operator import add
from typing import NamedTuple

from .ideals import IdealPresentation
from .partitions import Partition, garsia_procesi_series
from .polynomial import Polynomial


def dim_graded_piece(n: int, d: int) -> int:
    return comb(d + n - 1, n - 1)


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


class RankLemmaReport(NamedTuple):
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
    of J are sparse rows {col: value}; their nonzero rows must be distinct
    unit vectors (ValueError otherwise), so the rank is their count."""
    n = partition.n
    dual = partition.dual()
    jrows = [{c: v for c, v in enumerate(row) if v} for row in jordan_matrix(partition)]
    power = [{i: 1} for i in range(n)]  # J^0
    ranks = [0] * (n + 1)  # ranks[k] = rank(J^k)
    for k in range(n + 1):
        nonzero = [row for row in power if row]
        units = {c for row in nonzero if len(row) == 1 for c, v in row.items() if v == 1}
        if len(units) < len(nonzero):
            raise ValueError(f"the nonzero rows of J^{k} are not distinct unit vectors")
        ranks[k] = len(nonzero)
        # each nonzero row is now a unit row e_c, and e_c J is row c of J
        power = [jrows[next(iter(row))] if row else row for row in power]
    rows = []
    ok = True
    for s in range(1, n + 1):
        p = dual.p_function(s)
        r = ranks[n - s]
        rows.append((s, p, r))
        ok = ok and p == r
    return RankLemmaReport(partition, tuple(rows), ok)


# -- integral freeness -----------------------------------------------------


class FreenessReport(NamedTuple):
    partition: Partition
    # (d, rank of the ideal slice, torsion primes: p once per p-primary summand)
    degrees: tuple[tuple[int, int, tuple[int, ...]], ...]
    # (p, its F_p staircase series, or None where there is none)
    primes: tuple[tuple[int, tuple[int, ...] | None], ...]
    ok: bool

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "degrees": [
                {"d": d, "rank": r, "nonunit_factors": list(f)} for d, r, f in self.degrees
            ],
            "primes": [
                {"p": p, "series": None if fp is None else list(fp)} for p, fp in self.primes
            ],
            "ok": self.ok,
        }


def _count(series, d: int) -> int:
    """series[d], and 0 past its end."""
    return series[d] if d < len(series) else 0


def integral_freeness_check(partition: Partition, series, primes, modular) -> FreenessReport:
    """Check that the cohomology quotient M = Z[y]/I is Z-free, from a prime
    certificate of the integer completion of I.

    series[d] counts the degree-d standard monomials of I over Q, so the
    ideal slice has rank dim S_d - series[d].  primes are those the integer
    completion divided by, and modular maps each to the staircase series,
    through degree dim + 1, of the same generators completed over F_p.  At
    every other prime the completion is valid over Z_(p), so M_(p) is free
    on the staircase.  At a prime p of primes, dim (M/pM)_d = series[d] +
    the number of p-primary summands of M_d, so each excess count is a
    torsion summand, listed as p in degree d for d = 1..dim + 1.  A prime
    of primes that modular has no series for fails the check: nothing
    then rules out p-torsion.  Each prime is listed with its series, so
    none listed means freeness rests on the completion over Q alone.
    """
    n = partition.n
    listed = tuple((p, modular.get(p)) for p in sorted(primes))
    compared = [(p, fp) for p, fp in listed if fp is not None]
    degrees = []
    for d in range(1, partition.springer_dimension() + 2):
        torsion = []
        for p, fp in compared:
            excess = _count(fp, d) - _count(series, d)
            if excess < 0:
                raise ValueError(f"F_{p} staircase below the rational one in degree {d}")
            torsion += [p] * excess
        degrees.append((d, dim_graded_piece(n, d) - _count(series, d), tuple(torsion)))
    ok = len(compared) == len(listed) and not any(t for _, _, t in degrees)
    return FreenessReport(partition, tuple(degrees), listed, ok)


# -- the filtration comparison ---------------------------------------------


class FiltrationReport(NamedTuple):
    partition: Partition
    rows: tuple[tuple[int, int, int, int], ...]  # (d, dim S_d, dim I_d, dim gr_d)
    ok: bool
    mismatch_degree: int | None = None
    findings: tuple[str, ...] = ()

    def to_dict(self):
        return {
            "partition": list(self.partition.parts),
            "rows": [
                {"d": d, "dim_S": s, "dim_ideal": i, "dim_gr": g}
                for d, s, i, g in self.rows
            ],
            "ok": self.ok,
            "mismatch_degree": self.mismatch_degree,
            "findings": list(self.findings),
        }


def filtration_check(partition: Partition, series) -> FiltrationReport:
    """Judge the degree filtration of the K-ideal from one staircase series.

    series[d] counts the degree-d standard monomials of a reduced basis of
    the K(v) ideal, the cohomology ideal written in v; past its end it
    counts 0.  The ideal is homogeneous, so under any order the degree-d
    standard monomials are a basis of the degree-d piece of the quotient,
    and the ideal column dim S_d - series[d] is also the gr column.  Per
    degree d <= dim + 1, series[d] must be GP_d, GP the Garsia-Procesi
    series, and the finding names the first degree where it is not.  That
    is the whole check: GP sums to the multinomial rank and ends at degree
    dim, so a matching series gives the quotient that rank and a full slice
    in degree dim + 1, past which the staircase, closed under division, is
    empty.
    """
    gp = garsia_procesi_series(partition)
    counts = [_count(series, d) for d in range(partition.springer_dimension() + 2)]
    s_dims = [dim_graded_piece(partition.n, d) for d in range(len(counts))]
    mismatch = next((d for d, c in enumerate(counts) if c != _count(gp, d)), None)
    findings = () if mismatch is None else (
        f"degree {mismatch}: staircase count {counts[mismatch]} vs {_count(gp, mismatch)} "
        "from the Garsia-Procesi series",)
    rows = tuple((d, s, s - c, s - c) for d, (s, c) in enumerate(zip(s_dims, counts)))
    return FiltrationReport(partition, rows, mismatch is None, mismatch, findings)


# -- the tests' slice oracle ------------------------------------------------
# No command reaches this section.  It stays in the package only because the
# benchmark tracer wraps ideal_degree_rank.


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


def monomials_of_degree(n: int, d: int):
    """All exponent vectors of total degree d, first variable heaviest first."""
    if n == 1:
        yield (d,)
        return
    for e in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - e):
            yield (e,) + rest


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
