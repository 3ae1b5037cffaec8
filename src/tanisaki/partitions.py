"""Partition combinatorics: duals, p-functions, ranks, dimensions, subsets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator


class PartitionError(ValueError):
    """Malformed partition input."""


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers summing to n.

    Trailing zeros are never stored; ``p_function`` zero-pads to length n
    on the fly.  Indices in every interface are 1-based.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise PartitionError(
                    f"part {i + 1} must be a positive integer, got {p}"
                )
            if i and parts[i - 1] < p:
                raise PartitionError(
                    f"parts must be weakly decreasing: part {i + 1} (={p}) "
                    f"exceeds part {i} (={parts[i - 1]})"
                )

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def dual(self) -> "Partition":
        """Conjugate partition: j-th part counts the parts of self that are >= j."""
        if not self.parts:
            return Partition(())
        width = self.parts[0]
        eta = [0] * width
        for p in self.parts:
            for j in range(p):
                eta[j] += 1
        return Partition(tuple(eta))

    def p_function(self, s: int) -> int:
        """Sum of the last s entries of the length-n zero-padded part vector."""
        n = self.n
        if not 1 <= s <= n:
            raise PartitionError(f"p_function argument s={s} out of range 1..{n}")
        # padded vector is (parts..., 0, ..., 0); the last s entries overlap
        # the stored parts only beyond index n - s
        start = n - s
        return sum(p for i, p in enumerate(self.parts) if i >= start)

    def multinomial_rank(self) -> int:
        """n! / (parts[0]! * ... * parts[-1]!), exact."""
        r = factorial(self.n)
        for p in self.parts:
            r //= factorial(p)
        return r

    def springer_dimension(self) -> int:
        """Sum of eta_j*(eta_j - 1)/2 over the dual parts eta."""
        return sum(e * (e - 1) // 2 for e in self.dual().parts)


@lru_cache(maxsize=None)
def garsia_procesi_series(partition: Partition) -> tuple[int, ...]:
    """Hilbert series of the cohomology ring of the Springer fibre, lowest
    degree first, by the Garsia-Procesi recursion (Adv. Math. 94, 1992):
    F_mu(q) = sum_i q^(i-1) F_mu(i)(q), where mu(i) lowers the i-th part of
    mu by one and re-sorts, and F = 1 for n <= 1.  It is computed from the
    partition alone, so it checks every staircase series independently."""
    parts = partition.parts
    if partition.n <= 1:
        return (1,)
    series = [0] * (partition.springer_dimension() + 1)
    for i in range(len(parts)):
        lowered = sorted(parts[:i] + (parts[i] - 1,) + parts[i + 1:], reverse=True)
        for d, c in enumerate(garsia_procesi_series(Partition(tuple(x for x in lowered if x)))):
            series[i + d] += c
    return tuple(series)


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form, e.g. "5,4,4,2,2,2,1"."""
    pieces = [t.strip() for t in text.split(",")]
    if pieces == [""]:
        raise PartitionError("empty partition")
    parts = []
    for i, piece in enumerate(pieces):
        try:
            parts.append(int(piece))
        except ValueError:
            raise PartitionError(f"part {i + 1} ({piece!r}) is not an integer") from None
    return Partition(tuple(parts))


def enumerate_subsets(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing s-tuples from [1, n], lexicographic, lazily."""
    if not 1 <= s <= n:
        raise PartitionError(f"subset size s={s} out of range 1..{n}")
    return itertools.combinations(range(1, n + 1), s)


def check_subset(indices, n: int) -> tuple[int, ...]:
    """Validate 1 <= i_1 < ... < i_s <= n; return as a tuple."""
    idx = tuple(int(i) for i in indices)
    if not idx:
        raise PartitionError("empty index subset")
    for k, i in enumerate(idx):
        if not 1 <= i <= n:
            raise PartitionError(f"index {i} out of range 1..{n}")
        if k and idx[k - 1] >= i:
            raise PartitionError(
                f"indices must be strictly increasing: position {k + 1} (={i}) "
                f"does not exceed position {k} (={idx[k - 1]})"
            )
    return idx


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order: (n) first, (1^n) last."""
    if n < 1:
        raise PartitionError(f"n must be >= 1, got {n}")
    out = []
    cur = [n]
    while True:
        out.append(Partition(tuple(cur)))
        # find rightmost part > 1, decrement it, refill greedily
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            return out
        rest = len(cur) - i - 1 + 1  # ones to the right plus the unit taken
        cur = cur[:i] + [cur[i] - 1]
        cap = cur[-1]
        while rest > 0:
            take = min(cap, rest)
            cur.append(take)
            rest -= take
