"""Sparse multivariate polynomials over exact integers and rationals.

Terms are stored in a dict keyed by fixed-length exponent tuples; coefficients
are Python ints with a transparent Fraction escape hatch, so no arithmetic is
ever approximate.  Polynomials are immutable values: every operation returns
a fresh canonical instance.  Input is validated once, by the public
constructor and at each scalar operand; results that arithmetic builds from
valid polynomials are canonical by construction and are not checked again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add


class PolynomialError(ValueError):
    pass


def binomial(a: int, b: int) -> int:
    """Generalized binomial coefficient C(a, b) for integer a, b >= 0."""
    if b < 0:
        raise PolynomialError(f"binomial lower index must be >= 0, got {b}")
    if a >= 0:
        return math.comb(a, b)
    # C(a, b) = (-1)^b * C(-a + b - 1, b) for a < 0
    return (-1) ** b * math.comb(-a + b - 1, b)


def _norm_coeff(c):
    """Collapse integral Fractions and bools to int; reject floats."""
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise PolynomialError(f"coefficient must be exact (int or Fraction), got {type(c).__name__}")


def _collapse(c):
    """c, a sum or product of canonical coefficients, with an integral
    Fraction turned into its int."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


# Bounded: a staircase of thousands of monomials, each rendered once per
# report, would otherwise stay in memory for the rest of the process.
_RENDER_CACHE = 1024


@lru_cache(maxsize=_RENDER_CACHE)
def degrevlex_key(exps: tuple[int, ...]):
    """Sort key realizing graded reverse-lexicographic order (ascending)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


@lru_cache(maxsize=_RENDER_CACHE)
def monomial_text(m: tuple[int, ...], prefix: str) -> str:
    """Text form of the monomial with exponent tuple m, as in u1*u3^2; the
    empty string for the constant monomial."""
    return "*".join(
        f"{prefix}{j + 1}" if e == 1 else f"{prefix}{j + 1}^{e}"
        for j, e in enumerate(m)
        if e
    )


class Polynomial:
    """Immutable sparse polynomial in n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise PolynomialError(f"variable count must be >= 0, got {n}")
        canon = {}
        if terms:
            for exps, c in terms.items():
                c = _norm_coeff(c)
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise PolynomialError(f"bad exponent vector {exps} for {n} variables")
                canon[exps] = c
        self.n = n
        self.terms = canon

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, n: int, terms: dict) -> "Polynomial":
        """Wrap a term dict that is already canonical: no zero coefficient,
        length-n exponent tuples, int or non-integral Fraction coefficients.
        Nothing is checked; the dict is stored, not copied."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, j: int) -> "Polynomial":
        """The j-th variable, 1-based."""
        if not 1 <= j <= n:
            raise PolynomialError(f"variable index {j} out of range 1..{n}")
        e = [0] * n
        e[j - 1] = 1
        return cls(n, {tuple(e): 1})

    # -- ring operations ----------------------------------------------

    def _operand(self, other) -> "Polynomial":
        """other as a polynomial in the same variables; a scalar is validated."""
        if not isinstance(other, Polynomial):
            return Polynomial.constant(self.n, other)
        if self.n != other.n:
            raise PolynomialError(f"variable count mismatch: {self.n} vs {other.n}")
        return other

    def __add__(self, other):
        other = self._operand(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = res.get(m, 0) + c
            if v:
                res[m] = _collapse(v)
            else:
                del res[m]
        return Polynomial._of(self.n, res)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial._of(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            other = _norm_coeff(other)
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial._of(self.n, {m: _collapse(c * other) for m, c in self.terms.items()})
        other = self._operand(other)
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                res[m] = res.get(m, 0) + c1 * c2
        return Polynomial._of(self.n, {m: _collapse(c) for m, c in res.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolynomialError("negative polynomial power")
        result = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    # -- substitutions ------------------------------------------------

    def permute_variables(self, sigma) -> "Polynomial":
        """Substitute x_j -> x_{sigma(j)}; sigma is a 1-based bijection of [1, n]."""
        sigma = tuple(sigma)
        if sorted(sigma) != list(range(1, self.n + 1)):
            raise PolynomialError(f"{sigma} is not a permutation of 1..{self.n}")
        res = {}
        for m, c in self.terms.items():
            new = [0] * self.n
            for j, e in enumerate(m):
                new[sigma[j] - 1] = e
            res[tuple(new)] = c
        return Polynomial._of(self.n, res)

    def shift_variables(self, delta) -> "Polynomial":
        """Substitute x_j -> x_j + delta for every variable, delta exact, one
        variable per pass: x_j^e -> sum_a C(e, a) delta^(e - a) x_j^a."""
        delta = _norm_coeff(delta)
        terms = self.terms
        for j in range(self.n):
            res = {}
            for m, c in terms.items():
                for a in range(m[j] + 1):
                    key = m[:j] + (a,) + m[j + 1:]
                    res[key] = res.get(key, 0) + c * math.comb(m[j], a) * delta ** (m[j] - a)
            terms = res
        return Polynomial._of(self.n, {m: _collapse(c) for m, c in terms.items() if c})

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.n, other)
        return isinstance(other, Polynomial) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- text form ----------------------------------------------------

    def render(self, prefix: str = "u") -> str:
        """Canonical text form, terms in descending degrevlex order."""
        if not self.terms:
            return "0"
        chunks = []
        for m in sorted(self.terms, key=degrevlex_key, reverse=True):
            c = self.terms[m]
            text = monomial_text(m, prefix)
            neg = c < 0
            mag = -c if neg else c
            if text and mag == 1:
                body = text
            elif text:
                body = f"{mag}*{text}"
            else:
                body = str(mag)
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"Polynomial({self.n}, {self.render()})"

