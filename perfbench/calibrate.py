"""Fixed pure-Python work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

`run.py` starts this script in a fresh interpreter before each set-up and
times it from launch to exit, as it times the set-up.  Like the set-up, it
is a short process, most of whose time goes to starting the interpreter and
importing modules.  Its work never changes, so a slower run of it means a
slower host, not slower code.  The work resembles the engine's: sparse
polynomials as dicts from exponent tuples to integers, and exact
elimination over `Fraction`s.  It prints a checksum, which `run.py`
compares with CHECKSUM.
"""

from __future__ import annotations

from fractions import Fraction

CHECKSUM = "330 30 330"


def poly_power() -> int:
    """Number of terms of (x1 - 2 x2 + 3 x3 + x4 + 5)^7, expanded by repeated multiplication."""
    base = {(1, 0, 0, 0): 1, (0, 1, 0, 0): -2, (0, 0, 1, 0): 3, (0, 0, 0, 1): 1, (0, 0, 0, 0): 5}
    power = dict(base)
    for _ in range(6):
        product: dict[tuple[int, ...], int] = {}
        for ea, ca in power.items():
            for eb, cb in base.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = product.get(e, 0) + ca * cb
        power = {e: c for e, c in product.items() if c}
    return len(power)


def fraction_rank(n: int = 30) -> int:
    """Rank of a fixed n x n rational matrix, by Gaussian elimination over Fractions."""
    rows = [[Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        for i in range(rank + 1, n):
            factor = rows[i][col] * inverse
            if factor:
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


if __name__ == "__main__":
    print(poly_power(), fraction_rank(), poly_power())
