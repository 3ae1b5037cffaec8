"""Buchberger Groebner-basis engine over exact rationals, or over F_p.

Completion and normal forms run on one kernel, `_Engine.reduce`, over
primitive integer polynomials (gcd-normalized pseudo reduction), so no
Fraction ever enters the hot loop; the finished basis is converted to the
unique reduced monic form.  Inside the engine every monomial is one int
(`_Packing`): int order is the monomial order, a product is a sum, and a
divisibility test is a subtraction and a mask.  Exponent tuples are packed
when polynomials enter the engine and unpacked when they leave it; a
monomial too wide for the fields (a total degree of 2^15 or more under a
graded order, an exponent of 2^15 or more under lex) raises GroebnerError
instead.  Both classic Buchberger criteria are applied and the pair queue
uses the normal (lowest lcm degree first) strategy with monomial-order
tie-breaks, so completion is deterministic for a fixed input and order.

A completion over Q records on its basis, as `primes`, the primes of every
number it divided by: the contents it removed and the leading coefficients
the monic conversion divides out.  Given a prime modulus, the same kernel
and pair criteria complete the generators over F_p instead; comparing those
staircases with the rational one certifies Z-freeness (`buchberger`).

Two memo tables keep per-monomial work from repeating.  Both live and die
with the `_Engine` that owns them; there is no process-wide cache and no
switch to turn one off.
- `_Engine.exponents`: each basis element's leading exponent tuple, kept
  beside its packed leading monomial, so pair lcms and the staircase never
  unpack.
- `_Engine.reducers`: packed monomial -> `find_reducer`'s answer on the
  engine's basis.  There is one reduction path and every reduction goes
  through it; `add`, the only change to the leading monomials, clears it
  (tail reduction rewrites tails only).  So every hit equals a fresh scan,
  and the engine takes the same steps, and records the same primes, as it
  would without it.
Basis files (`write_basis`) are written and never read back.
"""

from __future__ import annotations

import bisect
import heapq
import json
import os
from fractions import Fraction
from math import gcd
from operator import mul
from typing import NamedTuple

from .ideals import IdealPresentation
from .polynomial import Polynomial


class GroebnerError(ValueError):
    pass


class InfiniteQuotient(GroebnerError):
    """The staircase has an infinite ray: the quotient is not finite rank."""


class MonomialOrder(NamedTuple):
    """A multiplicative total order on monomials with 1 minimal, named by its
    kind; `_Packing` checks the kind before any completion or normal form."""

    kind: str = "degrevlex"

    def to_dict(self) -> dict:
        # schema 2 reports carry a priority key, which no order sets
        return {"kind": self.kind, "priority": None}


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")
LEX = MonomialOrder("lex")


class GroebnerBasis:
    """A reduced basis, equal to another exactly when polys and order are.

    `primes` are those of the completion that built polys, and `source`
    the presentation it completed.  `cli` reads a cohomology basis as the
    K basis too, once `ideals.k_certificate` holds; no basis is in u.
    """

    __slots__ = ("polys", "order", "engine", "source", "primes", "__weakref__")

    def __init__(self, polys, order, engine, source=None, primes=frozenset()):
        self.polys = polys  # monic, auto-reduced, sorted by leading monomial
        self.order = order
        self.engine = engine  # polys as primitive integer terms
        self.source = source  # the IdealPresentation completed, or None
        self.primes = primes  # over Q: those of every number the completion divided by

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis)
                and (self.polys, self.order) == (other.polys, other.order))

    @property
    def n(self) -> int:
        return len(self.engine.packing.shifts)

    def __len__(self):
        return len(self.polys)


# -- integer kernel ----------------------------------------------------

_FIELD = 16  # bits per packed field; the top one is a guard bit
_LIMIT = 1 << (_FIELD - 1)  # every field of a packable monomial stays below it


class _Packing:
    """Exponent vectors of n variables as one int whose int order is the
    monomial order (Bachmann-Schoenemann, ISSAC 1998).

    Fields of _FIELD bits, most significant first: the order fields, then
    one exponent field per variable, x_1 first.  Degrevlex has the partial
    sums e_1+...+e_k, k = n..2 (e_1 itself is the top exponent field);
    deglex has the degree; lex has none.  Every field is linear in the
    exponents, so a product is a sum and a quotient a difference.  While
    every field stays below its guard bit, a | b is
    ((b | guard) - a) & guard == guard: no field borrows from the next, and
    each field of b keeps its guard bit exactly when it is at least a's.
    """

    def __init__(self, order: MonomialOrder, n: int):
        sums = {"degrevlex": range(n, 1, -1), "deglex": (n,), "lex": ()}.get(order.kind)
        if sums is None:
            raise GroebnerError(f"unknown monomial order {order.kind!r}")
        fields = [range(1, k + 1) for k in sums] + [(k,) for k in range(1, n + 1)]
        units = [0] * n
        self.guard = 0
        self.exponent_guard = 0  # the guard bits of the exponent fields alone
        self.shifts = [0] * n  # bit offset of each variable's exponent field
        for pos, ks in enumerate(reversed(fields)):
            shift = pos * _FIELD
            self.guard |= 1 << (shift + _FIELD - 1)
            for k in ks:
                units[k - 1] += 1 << shift
            if pos < n:
                self.exponent_guard |= 1 << (shift + _FIELD - 1)
                self.shifts[n - pos - 1] = shift
        self.units = tuple(units)
        self.graded = order.kind != "lex"

    def pack(self, exps: tuple[int, ...]) -> int:
        widest = sum(exps) if self.graded else max(exps, default=0)
        if widest >= _LIMIT:
            raise GroebnerError(f"monomial {exps} is too wide to pack below {_LIMIT}")
        return sum(map(mul, exps, self.units))

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple((m >> s) & (_LIMIT - 1) for s in self.shifts)

    def lcm(self, ea: tuple[int, ...], eb: tuple[int, ...]) -> tuple[int, int] | None:
        """(degree, packed lcm) of the exponent tuples ea and eb, or None
        when they are coprime."""
        if not any(map(min, ea, eb)):
            return None
        m = tuple(map(max, ea, eb))
        return sum(m), self.pack(m)


def _primitive(terms, lm, divisors):
    """Divide by the content and make the leading coefficient positive; a
    content other than 1 is added to divisors."""
    g = 0
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return terms
    if g != 1:
        divisors.add(g)
    if terms[lm] < 0:
        g = -g
    if g != 1:
        return {m: c // g for m, c in terms.items()}
    return terms


def _prime_factors(m: int) -> set[int]:
    """The primes dividing m >= 1, by trial division."""
    out = set()
    f = 2
    while f * f <= m:
        while m % f == 0:
            out.add(f)
            m //= f
        f += 1
    if m > 1:
        out.add(m)
    return out


def _integral(p: Polynomial, packing: _Packing):
    """Packed integer terms and the positive denominator den with
    p == terms / den."""
    den = 1
    for c in p.terms.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    pack = packing.pack
    return {pack(m): int(c * den) for m, c in p.terms.items()}, den


class _Engine:
    """Mutable reduction state: parallel arrays of basis data, every
    monomial packed by the engine's _Packing.

    With modulus 0 the engine works over Z and every content it divides a
    polynomial by in `add` goes into `divisors`; `reduce` only scales by
    multipliers mt and never divides, so it records nothing.  With a prime
    modulus p it works over F_p: basis elements are monic with coefficients
    in 0..p-1, so each reduction step has mt = 1, and `reduce` drops a
    leading term that vanishes mod p.
    """

    def __init__(self, order: MonomialOrder, n: int, modulus: int = 0):
        self.packing = _Packing(order, n)
        self.modulus = modulus
        self.divisors: set[int] = set()
        self.terms: list[dict] = []
        self.lms: list[int] = []
        self.exponents: list[tuple[int, ...]] = []  # unpacked lms
        self.lcs: list[int] = []
        self.scan: list[tuple[int, int]] = []  # (lm, idx), sorted: reducer choice order
        self.reducers: dict[int, int] = {}  # m -> find_reducer(m) on the current basis

    def add(self, terms):
        lm = max(terms)
        p = self.modulus
        if p:
            inv = pow(terms[lm], -1, p)
            terms = {m: c * inv % p for m, c in terms.items()}
        else:
            terms = _primitive(terms, lm, self.divisors)
        idx = len(self.terms)
        self.terms.append(terms)
        self.lms.append(lm)
        self.exponents.append(self.packing.unpack(lm))
        self.lcs.append(terms[lm])
        bisect.insort(self.scan, (lm, idx))
        self.reducers.clear()
        return idx

    def find_reducer(self, m):
        """First divisor of m in scan order, or -1.  A divisor never exceeds
        m, so the scan stops at the first larger leading monomial."""
        g = self.packing.guard
        mg = m | g
        for lm, i in self.scan:
            if lm > m:
                break
            if (mg - lm) & g == g:
                return i
        return -1

    def reduce(self, terms):
        """Full reduction: (remainder, scale) with remainder == scale * normal
        form, where the int scale > 0 is the product of the step multipliers.
        Each step's reducer comes through the reducers memo."""
        terms = dict(terms)
        remainder = {}
        scale = 1
        guard = self.packing.guard
        p = self.modulus
        memo = self.reducers
        while terms:
            lm = max(terms)
            if lm & guard:
                raise GroebnerError(f"a monomial grew too wide to pack below {_LIMIT}")
            if p:
                c = terms[lm] % p
                if not c:
                    del terms[lm]
                    continue
                terms[lm] = c
            i = memo.get(lm)
            if i is None:
                i = memo[lm] = self.find_reducer(lm)
            if i < 0:
                remainder[lm] = terms.pop(lm)
                continue
            c = terms[lm]
            a = self.lcs[i]
            g0 = gcd(a, c)
            mt, mg = a // g0, c // g0
            if mt < 0:
                mt, mg = -mt, -mg
            if mt != 1:
                scale *= mt
                for m in terms:
                    terms[m] *= mt
                for m in remainder:
                    remainder[m] *= mt
            shift = lm - self.lms[i]
            for me, ce in self.terms[i].items():
                me += shift
                v = terms.get(me, 0) - mg * ce
                if v:
                    terms[me] = v
                else:
                    del terms[me]
        return remainder, scale

    def s_poly(self, i, j, lcm):
        """Integer S-polynomial of basis elements i and j, whose leading
        monomials have the packed lcm."""
        si, sj = lcm - self.lms[i], lcm - self.lms[j]
        lci, lcj = self.lcs[i], self.lcs[j]
        g0 = gcd(lci, lcj)
        mi, mj = lcj // g0, lci // g0
        res = {m + si: mi * c for m, c in self.terms[i].items()}
        for m, c in self.terms[j].items():
            m += sj
            v = res.get(m, 0) - mj * c
            if v:
                res[m] = v
            else:
                del res[m]
        return res


def buchberger(source, order: MonomialOrder = DEGREVLEX, modulus: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the given generators over the rationals or,
    for a prime modulus p, of their integer multiples reduced mod p over F_p.

    Over Q the basis records `primes`: those of every content the integer
    completion divided out and of every leading coefficient the monic
    conversion divides by.  For a prime p outside them every step is valid
    over Z_(p), so the monic basis lies in I Z_(p)[x] with coefficients in
    Z_(p) and Z_(p)[x]/I is free on the staircase (Adams-Loustaunau,
    An Introduction to Groebner Bases, ch. 4).
    """
    if isinstance(source, IdealPresentation):
        gens = source.polynomials()
        pres = source
    else:
        gens = list(source)
        pres = None
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise GroebnerError("empty generator list")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise GroebnerError("mixed variable counts in generator list")

    eng = _Engine(order, n, modulus)
    packing = eng.packing
    guard, exponent_guard = packing.guard, packing.exponent_guard

    # seed with inter-reduced input, smallest leading monomials first
    seeds = sorted((_integral(g, packing)[0] for g in gens), key=max)
    for t in seeds:
        r, _ = eng.reduce(t)
        if r:
            eng.add(r)

    pending: set[tuple[int, int]] = set()
    heap: list = []

    def push_pairs(j):
        exponents = eng.exponents
        ej = exponents[j]
        for i in range(j):
            pair = packing.lcm(exponents[i], ej)
            if pair is None:
                continue  # coprime leading terms: S-poly reduces to 0
            pending.add((i, j))
            heapq.heappush(heap, (*pair, i, j))

    for j in range(len(eng.terms)):
        push_pairs(j)

    while heap:
        _, lcm, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm_g = lcm | guard
        # guard bits of the exponent fields where lm_i (lm_j) is below the lcm
        short_i = ~((eng.lms[i] | guard) - lcm) & exponent_guard
        short_j = ~((eng.lms[j] | guard) - lcm) & exponent_guard
        chained = False
        for k, lmk in enumerate(eng.lms):
            if k == i or k == j or (lcm_g - lmk) & guard != guard:
                continue
            short_k = ~((lmk | guard) - lcm) & exponent_guard
            # strict sub-lcm guards keep the chain criterion sound when
            # several pairs share one lcm: lcm(lm_i, lm_k) != lcm and
            # lcm(lm_j, lm_k) != lcm
            if not short_i & short_k or not short_j & short_k:
                continue
            if (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending:
                chained = True
                break
        if chained:
            continue
        s = eng.s_poly(i, j, lcm)
        if not s:
            continue
        r, _ = eng.reduce(s)
        if r:
            push_pairs(eng.add(r))

    # minimal generating set of the leading-term ideal
    kept: list[int] = []
    for lm, i in eng.scan:
        lm_g = lm | guard
        if not any((lm_g - eng.lms[k]) & guard == guard for k in kept):
            kept.append(i)

    # tail-reduce to the unique auto-reduced form; leading monomials of a
    # minimal basis never change, so one pass leaves every element reduced.
    # No monomial below lm is divisible by lm, so an element never reduces
    # its own tail: c*lm + tail becomes c*scale*lm + r, where
    # r == scale * NF(tail)
    final = _Engine(order, n, modulus)
    for i in kept:
        final.add(eng.terms[i])
    for pos, lm in enumerate(final.lms):
        terms = final.terms[pos]
        r, scale = final.reduce({m: c for m, c in terms.items() if m != lm})
        r = {lm: terms[lm] * scale, **r}
        if not modulus:  # mod p the leading coefficient stays 1
            r = _primitive(r, lm, final.divisors)
        final.terms[pos] = r
        final.lcs[pos] = r[lm]

    unpack = packing.unpack
    monic = []
    for t, lm in zip(final.terms, final.lms):
        lc = t[lm]
        monic.append(Polynomial(n, {unpack(m): Fraction(c, lc) for m, c in t.items()}))
    primes = frozenset()
    if not modulus:
        divided = eng.divisors | final.divisors | set(final.lcs)
        primes = frozenset(q for m in divided for q in _prime_factors(m))
    return GroebnerBasis(tuple(monic), order, final, pres, primes)


# -- normal forms and the staircase -----------------------------------


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo gb: no term divisible by a leading term.

    The basis's integer engine reduces p's integral multiple; one division
    at the end gives the exact rational remainder.
    """
    if not gb.polys:
        raise GroebnerError("empty basis")
    if p.n != gb.n:
        raise GroebnerError(f"variable count mismatch: {p.n} vs {gb.n}")
    eng = gb.engine
    terms, den = _integral(p, eng.packing)
    remainder, scale = eng.reduce(terms)
    unpack = eng.packing.unpack
    return Polynomial(gb.n, {unpack(m): Fraction(c, scale * den) for m, c in remainder.items()})


def standard_monomials(gb: GroebnerBasis, max_degree: int | None = None) -> list[tuple[int, ...]]:
    """Monomials outside the leading-term ideal, sorted by (degree, exponents);
    with max_degree, only those of degree at most max_degree.

    Without max_degree, raises InfiniteQuotient when some variable has no
    pure-power leading term, since the staircase then contains an infinite ray.
    The walk carries each monomial packed by the basis's engine and tests
    divisibility by a leading monomial as the kernel does, so a walk that
    reaches a monomial too wide to pack raises GroebnerError.
    """
    n = gb.n
    eng = gb.engine
    lts = eng.exponents
    bounds = []
    for j in range(n):
        pure = [m[j] for m in lts if sum(m) == m[j]]
        if pure:
            bounds.append(min(pure))
        elif max_degree is None:
            raise InfiniteQuotient(f"variable {j + 1} has no pure-power leading term")
        else:
            bounds.append(max_degree + 1)

    # a leading monomial whose last variable is t < j was already tested at
    # depth t on the same prefix, and one ending after j cannot divide yet
    ending = [[] for _ in range(n)]
    for m, lm in zip(lts, eng.lms):
        last = max((j for j, e in enumerate(m) if e), default=-1)
        if last >= 0:
            ending[last].append(lm)

    units = eng.packing.units
    guard = eng.packing.guard
    out = []
    vec = [0] * n

    def descend(j, room, packed):
        if j == n:
            out.append(tuple(vec))
            return
        unit, ends = units[j], ending[j]
        for e in range(min(bounds[j], room + 1)):
            vec[j] = e
            if packed & guard:
                raise GroebnerError(f"monomial {tuple(vec)} is too wide to pack below {_LIMIT}")
            packed_g = packed | guard
            if any((packed_g - lm) & guard == guard for lm in ends):
                break  # larger e stays divisible by the same leading term
            descend(j + 1, room - e, packed)
            packed += unit
        vec[j] = 0

    descend(0, sum(bounds) if max_degree is None else max_degree, 0)
    out.sort(key=lambda m: (sum(m), m))
    return out


# -- Hilbert series of homogeneous ideals ------------------------------


def _require_homogeneous(pres: IdealPresentation):
    for g in pres.generators:
        if g.poly.is_zero():
            continue
        degs = {sum(m) for m in g.poly.terms}
        if len(degs) != 1:
            raise GroebnerError("hilbert_series requires homogeneous generators")


def hilbert_series(pres: IdealPresentation, order: MonomialOrder = DEGREVLEX) -> tuple[int, ...]:
    """Coefficients of the Hilbert series up to the top nonzero degree."""
    _require_homogeneous(pres)
    return staircase_series(standard_monomials(buchberger(pres, order)))


def staircase_series(monos) -> tuple[int, ...]:
    """Number of staircase monomials in each degree, up to the top one;
    () for the empty staircase of the unit ideal."""
    series = [0] * max((sum(m) + 1 for m in monos), default=0)
    for m in monos:
        series[sum(m)] += 1
    return tuple(series)


def modular_series(gb: GroebnerBasis, max_degree: int) -> dict[int, tuple[int, ...]]:
    """For each prime in gb.primes, the staircase series through max_degree
    of gb's source generators completed over F_p under gb's order."""
    if gb.source is None:
        raise GroebnerError("modular_series needs the basis's source presentation")
    return {
        p: staircase_series(standard_monomials(buchberger(gb.source, gb.order, p), max_degree))
        for p in sorted(gb.primes)
    }


# -- basis files -------------------------------------------------------
#
# Bases are written, never read.  The reduced basis of an ideal under an
# order is unique, so a file could save only the time its completion takes,
# and certifying that a loaded basis presents the ideal (every generator and
# every S-pair reduced on it) costs more than completing the ideal afresh.


def cache_path(pres: IdealPresentation, order: MonomialOrder, cache_dir: str) -> str:
    name = "gb_{}_{}_{}_{}.json".format(
        "-".join(str(p) for p in pres.partition.parts),
        pres.flavor,
        pres.convention,
        order.kind,
    )
    return os.path.join(cache_dir, name)


def write_basis(pres: IdealPresentation, polys, order: MonomialOrder, cache_dir: str) -> None:
    """Write polys, the reduced basis of pres under the order, in pres's
    variables, to their file under cache_dir, atomically."""
    # imported here: shutil and random would otherwise load at every start
    import tempfile

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            doc = {"schema_version": 2, "order": order.to_dict(),
                   "basis": [p.render(pres.convention) for p in polys]}
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(tmp, cache_path(pres, order, cache_dir))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cached_buchberger(
    pres: IdealPresentation, order: MonomialOrder = DEGREVLEX, cache_dir: str | None = None
) -> GroebnerBasis:
    """Completion; with a cache_dir, the basis is also written there
    (`write_basis`)."""
    gb = buchberger(pres, order)
    if cache_dir is not None:
        write_basis(pres, gb.polys, order, cache_dir)
    return gb
