"""Exact truncated power series over Q for coefficient-level identity proofs.

The numeric kernel certifies identities to ~1e-13 at sampled points; this
module removes the sampling for the theta-constant identities by computing
both sides as truncated power series with exact rational coefficients:
agreement of two degree-(T-1) truncations is a finite, exact statement.

Every series here has integer coefficients apart from two halves
(kappa(-1, u)'s constant term and FOR1's theta(u)**3 / 2), so a series is
stored as Python int numerators over one shared denominator.  A sum of rows
c * x**e / (1 - s * x**k), as in the kappa special values and both
double-sum forms, is built in one numerator list, each row added as one
strided slice (two interleaved ones when s = -1).  The double sums are even
in u, so they are summed in q and spread to u once.

A product is term-wise and packed.  The denser operand's numerators fill
w-byte slots of one int, with 8w >= bitlen(max|a|) + bitlen(max|b|) +
bitlen(min(nnz_a, nnz_b)) + 1 (1, 2, 4 or 8 bytes when that suffices), so
every product coefficient c has |c| < h = 2**(8w-1); each nonzero term
c * x**j of the sparser operand (here a theta null or psi, O(sqrt(t))
terms) adds c times that int shifted by j slots.  A signed slot with its
top bit flipped holds c + h; subtracting h from each slot gives the operand.
With h added to every slot of the sum, each kept slot is c + h, in [0, 2h);
the mask to t slots drops the higher slots, however negative, without a
borrow from the kept ones, and flipping the top bits reads each slot as c.

Series in u, the half-nome (q = u**2), hold the theta nulls and kappa
special values of the two three-term relations; series in q, from even
u-series via :func:`as_q_series`, the triangular-number generating function.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence


class TruncationMismatchError(ValueError):
    """Requested a coefficient beyond the retained truncation order."""


class USeries:
    """Truncated power series sum_{k < trunc} coeffs[k] * x**k with exact
    rational coefficients.  Arithmetic truncates to the shorter operand, the
    standard semantics for series known only up to their truncation order.

    Coefficients are held as int numerators over one shared positive
    denominator in lowest terms, so ``coeffs`` and ``coefficient`` return
    Fractions while the ring operations never build one."""

    __slots__ = ("trunc", "_num", "_den")

    def __init__(self, trunc: int, coeffs: Sequence[Fraction | int]) -> None:
        if trunc < 1:
            raise ValueError(f"trunc must be >= 1, got {trunc}")
        if len(coeffs) != trunc:
            raise ValueError(f"need exactly {trunc} coefficients, got {len(coeffs)}")
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*[f.denominator for f in fracs])
        self.trunc = trunc
        self._num = [f.numerator * (den // f.denominator) for f in fracs]
        self._den = den

    @classmethod
    def _make(cls, trunc: int, num: list[int], den: int) -> "USeries":
        """Wrap numerators the caller hands over (and no longer touches),
        reducing the shared denominator to lowest terms."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        series = object.__new__(cls)
        series.trunc = trunc
        series._num = num
        series._den = den
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "USeries":
        return cls._make(trunc, [0] * trunc, 1)

    @classmethod
    def one(cls, trunc: int) -> "USeries":
        return cls.monomial(0, trunc)

    @classmethod
    def monomial(cls, exponent: int, trunc: int, coeff: Fraction | int = 1) -> "USeries":
        if not 0 <= exponent < trunc:
            raise TruncationMismatchError(
                f"exponent {exponent} outside retained range [0, {trunc})"
            )
        return cls.from_terms({exponent: coeff}, trunc)

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction | int], trunc: int) -> "USeries":
        """Build from an exponent -> coefficient mapping; exponents at or
        beyond trunc are discarded (they are not representable), negative
        exponents are rejected."""
        kept = {}
        for e, v in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e} in series terms")
            if e < trunc:
                kept[e] = Fraction(v)
        # Star-args from a list, not a generator: CPython allocates a tuple
        # built from a generator by resizing, past the tuple free lists, yet
        # frees it onto them, so one call per series row kept filling those
        # lists (about 2 MB over a few hundred in-process verify runs).
        den = math.lcm(*[v.denominator for v in kept.values()])
        num = [0] * trunc
        for e, v in kept.items():
            num[e] = v.numerator * (den // v.denominator)
        return cls._make(trunc, num, den)

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "USeries") -> int:
        if not isinstance(other, USeries):
            raise TypeError(f"expected USeries, got {type(other).__name__}")
        return min(self.trunc, other.trunc)

    def _over_common(self, other: "USeries") -> tuple[int, list[int], list[int], int]:
        """(t, a, b, den): both operands' first t numerators over their
        common denominator den."""
        t = self._aligned(other)
        a, b = self._num[:t], other._num[:t]
        da, db = self._den, other._den
        if da == db:
            return t, a, b, da
        den = math.lcm(da, db)
        return t, list(map(mul, a, repeat(den // da))), list(map(mul, b, repeat(den // db))), den

    def __add__(self, other: "USeries") -> "USeries":
        t, a, b, den = self._over_common(other)
        return USeries._make(t, list(map(add, a, b)), den)

    def __sub__(self, other: "USeries") -> "USeries":
        t, a, b, den = self._over_common(other)
        return USeries._make(t, list(map(sub, a, b)), den)

    def __neg__(self) -> "USeries":
        return USeries._make(self.trunc, [-c for c in self._num], self._den)

    def scale(self, factor: Fraction | int) -> "USeries":
        f = Fraction(factor)
        return USeries._make(
            self.trunc, [f.numerator * c for c in self._num], self._den * f.denominator
        )

    def __mul__(self, other: "USeries") -> "USeries":
        """Term-wise packed product, exact for coefficients of any size (see
        the module docstring for the slot width, the offset and the mask)."""
        t = self._aligned(other)
        a, b = self._num[:t], other._num[:t]
        if a.count(0) < b.count(0):
            a, b = b, a  # a is the sparser operand, b the packed one
        nnz = t - a.count(0)
        bits = (max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
                + nnz.bit_length() + 1)
        w = next((n for n in (1, 2, 4, 8) if 8 * n >= bits), -(-bits // 8))
        code = {1: "b", 2: "h", 4: "i", 8: "q"}.get(w)  # struct's signed w-byte ints
        signs = int.from_bytes((bytes(w - 1) + b"\x80") * t, "little")  # h in every slot
        data = (struct.pack(f"<{t}{code}", *b) if code
                else b"".join([c.to_bytes(w, "little", signed=True) for c in b]))
        packed = (int.from_bytes(data, "little") ^ signs) - signs
        acc = signs
        for shift, c in zip(compress(range(0, 8 * w * t, 8 * w), a), filter(None, a)):
            acc += c * packed << shift
        data = ((acc & ((1 << 8 * w * t) - 1)) ^ signs).to_bytes(w * t, "little")
        if code:
            acc = list(struct.unpack(f"<{t}{code}", data))
        else:
            acc = [int.from_bytes(data[i : i + w], "little", signed=True) for i in range(0, w * t, w)]
        return USeries._make(t, acc, self._den * other._den)

    def __pow__(self, exponent: int) -> "USeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent}")
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            base = base * base if e > 1 else base
            e >>= 1
        return USeries.one(self.trunc) if result is None else result

    # -- queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    def coefficient(self, exponent: int) -> Fraction:
        if not 0 <= exponent < self.trunc:
            raise TruncationMismatchError(
                f"coefficient {exponent} not retained (trunc = {self.trunc})"
            )
        return Fraction(self._num[exponent], self._den)

    def agrees_with(self, other: "USeries") -> int | None:
        """First exponent (below the shorter truncation) where the two series
        differ, or None if they agree on the full shared range."""
        t = self._aligned(other)
        a, b, da, db = self._num, other._num, self._den, other._den
        for k in range(t):
            if a[k] * db != b[k] * da:
                return k
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return (self.trunc, self._den, self._num) == (other.trunc, other._den, other._num)

    def __hash__(self) -> int:
        return hash((self.trunc, self._den, tuple(self._num)))

    def __repr__(self) -> str:
        return f"USeries(trunc={self.trunc!r}, coeffs={self.coeffs!r})"


def _geometric_sum(trunc: int, rows: Iterable[tuple[int, int, int, int]], den: int = 1) -> USeries:
    """sum of c * x**e / (1 - s * x**k) over the rows (e, c, s, k), with
    e >= 0, integer c, s = +1 or -1 and k >= 1, truncated below x**trunc
    and divided by den.

    A row adds c at exponents e, e + k, e + 2k, ... as one strided slice;
    for s = -1 the signs alternate, so it is a slice of stride 2k adding c
    and one from e + k subtracting it.  A row whose step reaches past the
    truncation adds c at e alone (a monomial); a row that starts there adds
    nothing."""
    acc = [0] * trunc
    for e, c, s, k in rows:
        if e >= trunc:
            continue  # an empty slice: skip building it
        if e + k >= trunc:
            acc[e] += c
        elif s == 1:
            acc[e::k] = map(add, acc[e::k], repeat(c))
        else:
            k2 = 2 * k
            acc[e::k2] = map(add, acc[e::k2], repeat(c))
            acc[e + k :: k2] = map(sub, acc[e + k :: k2], repeat(c))
    return USeries._make(trunc, acc, den)


def _spread_to_u(series: USeries, trunc: int) -> USeries:
    """The even u-series below u**trunc of a q-series of (trunc + 1) // 2 terms."""
    num = [0] * trunc
    num[::2] = series._num
    return USeries._make(trunc, num, series._den)


# ---------------------------------------------------------------------------
# Theta null values and kappa special values as exact u-series.
# ---------------------------------------------------------------------------


def theta_null_plus(trunc: int) -> USeries:
    """theta(1, u) = 1 + 2 sum_{n>=1} u**(n**2), one monomial row per term."""
    rows = ((n * n, 2 if n else 1, 1, trunc) for n in range(math.isqrt(trunc) + 1))
    return _geometric_sum(trunc, rows)


def theta_null_minus(trunc: int) -> USeries:
    """theta(-1, u) = 1 + 2 sum_{n>=1} (-1)**n u**(n**2)."""
    rows = ((n * n, (-1) ** n * (2 if n else 1), 1, trunc) for n in range(math.isqrt(trunc) + 1))
    return _geometric_sum(trunc, rows)


def theta_null_half(trunc: int) -> USeries:
    """theta(u, u) = 2 sum_{n>=0} u**(n**2+n); the exponents n**2 + n are
    twice the triangular numbers, so this is 2 * psi(q) at q = u**2."""
    return _geometric_sum(trunc, ((n * n + n, 2, 1, trunc) for n in range(math.isqrt(trunc) + 1)))


def kappa_u_at_minus_one(trunc: int) -> USeries:
    """kappa(u, -1) = 2 sum_{n>=0} (-1)**n u**(n**2+2n) / (1 - u**(2n+1)),
    from the one-sided kappa(u, z) series at z = -1 where the two z-powers
    of each term coincide.  n**2 + 2n < trunc exactly for n < isqrt(trunc)."""
    return _geometric_sum(
        trunc, ((n * n + 2 * n, 2 * (-1) ** n, 1, 2 * n + 1) for n in range(math.isqrt(trunc)))
    )


def kappa_minus_u_at_one(trunc: int) -> USeries:
    """kappa(-u, 1) = 2 sum_{n>=0} u**(n**2+2n) / (1 + u**(2n+1))."""
    return _geometric_sum(
        trunc, ((n * n + 2 * n, 2, -1, 2 * n + 1) for n in range(math.isqrt(trunc)))
    )


def kappa_minus_one_at_u(trunc: int) -> USeries:
    """kappa(-1, u) = 1/2 + 2 sum_{m>=1} u**(m**2+m) / (1 + u**(2m)), by
    folding the bilateral sum at n <-> -n (the paired terms are equal).
    Summed over the denominator 2, so the rows carry 1 and 4; m runs to
    isqrt(trunc), past which m**2 + m >= trunc."""
    rows = ((m * m + m, 4, -1, 2 * m) for m in range(1, math.isqrt(trunc) + 1))
    return _geometric_sum(trunc, chain([(0, 1, 1, trunc)], rows), 2)


# ---------------------------------------------------------------------------
# The two theta-constant three-term relations, checked coefficientwise.
# ---------------------------------------------------------------------------


def _for_series(trunc: int, built: dict | None) -> list[USeries]:
    """theta(1), theta(-1), theta(u), kappa(u, -1) and kappa(-u, 1): the
    series both relations use.  A caller that passes one dict to both
    checks has them built once; the dict keeps them under trunc."""
    built = {} if built is None else built
    if trunc not in built:
        built[trunc] = [f(trunc) for f in (theta_null_plus, theta_null_minus, theta_null_half,
                                           kappa_u_at_minus_one, kappa_minus_u_at_one)]
    return built[trunc]


def for1_sides(trunc: int = 80, built: dict | None = None) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(1) kappa(u,-1) + theta(-1) kappa(-u,1)
    = theta(u)**3 / 2 as exact u-series."""
    plus, minus, half, k_plus, k_minus = _for_series(trunc, built)
    lhs = plus * k_plus + minus * k_minus
    rhs = (half**3).scale(Fraction(1, 2))
    return lhs, rhs


def for2_sides(trunc: int = 80, built: dict | None = None) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(u)**3 kappa(-1,u) = theta(-1)**3 kappa(u,-1)
    + theta(1)**3 kappa(-u,1) as exact u-series.

    Each dense kappa series is multiplied by its sparse theta null three
    times over rather than by the dense cube; truncated products are
    associative, so the coefficients are the same."""
    plus, minus, half, k_plus, k_minus = _for_series(trunc, built)
    lhs = kappa_minus_one_at_u(trunc) * half * half * half
    rhs = k_plus * minus * minus * minus + k_minus * plus * plus * plus
    return lhs, rhs


def check_for1_exact(trunc: int = 80, built: dict | None = None) -> int | None:
    """None if the first relation holds through u**(trunc-1); otherwise the
    first failing exponent.  Checks passed one ``built`` dict share series."""
    lhs, rhs = for1_sides(trunc, built)
    return lhs.agrees_with(rhs)


def check_for2_exact(trunc: int = 80, built: dict | None = None) -> int | None:
    """None if the second relation holds through u**(trunc-1); otherwise the
    first failing exponent.  Checks passed one ``built`` dict share series."""
    lhs, rhs = for2_sides(trunc, built)
    return lhs.agrees_with(rhs)


# ---------------------------------------------------------------------------
# Triangular-number generating function and its two double-sum forms.
# ---------------------------------------------------------------------------


def triangular_gf(trunc: int) -> USeries:
    """psi(q) = sum_{n>=0} q**(n(n+1)/2), the generating function of the
    triangular numbers, as a series in q."""
    rows = ((n * (n + 1) // 2, 1, 1, trunc) for n in range(math.isqrt(2 * trunc) + 1))
    return _geometric_sum(trunc, rows)


def as_q_series(series: USeries) -> USeries:
    """Reindex an even u-series as a series in q = u**2 (exponents halved).

    Raises ValueError if any odd-exponent coefficient is nonzero, since such
    a series has no expression in q."""
    odd = next(compress(range(1, series.trunc, 2), series._num[1::2]), None)
    if odd is not None:
        raise ValueError(
            f"series has nonzero coefficient at odd exponent {odd}; not a q-series"
        )
    return USeries._make((series.trunc + 1) // 2, series._num[0::2], series._den)


def double_sum_series(trunc: int, extra: int = 0) -> USeries:
    """Alternating double-sum form of psi(q)**3, returned as a u-series
    (q = u**2, all exponents even):

        sum_{n>=0} (-1)**n / (1 - q**(2n+1)) *
            sum_l [ q**((n-l)**2 + l**2 + n) + q**((n-l)**2 + (l+1)**2 + n) ]

    Row n's smallest q-exponent is at least n**2/2 + n, so rows with
    n**2//2 + n beyond the retained q-order contribute nothing; the l-window
    |l| <= isqrt(order) + 1 likewise covers every retained exponent because
    each term's q-exponent is at least max((n-l)**2, l**2, (l+1)**2).  The
    extra parameter widens both bounds; results must be independent of it.
    """
    if extra < 0:
        raise ValueError(f"extra must be >= 0, got {extra}")
    order = (trunc - 1) // 2  # largest retained q-exponent
    window = math.isqrt(order) + 1 + extra

    def rows() -> Iterator[tuple[int, int, int, int]]:
        n = 0
        while n * n // 2 + n <= order + extra:
            terms: dict[int, int] = {}  # one row per exponent, not per l
            for l in range(-window, window + 1):
                e = (n - l) ** 2 + l * l + n
                for q_exp in (e, e + 2 * l + 1):
                    if q_exp <= order:
                        terms[q_exp] = terms.get(q_exp, 0) + 1
            sign = -1 if n % 2 else 1
            for q_exp, count in terms.items():
                yield q_exp, sign * count, 1, 2 * n + 1
            n += 1

    return _spread_to_u(_geometric_sum(order + 1, rows()), trunc)


def andrews_series(trunc: int, extra: int = 0) -> USeries:
    """Positive double-sum form of psi(q)**3, returned as a u-series
    (q = u**2, all exponents even):

        sum_{n>=0} 1 / (1 - q**(2n+1)) *
            sum_{j=0}^{2n} [ q**E + q**(E + 2n+1) ],  E = 2n**2 + 2n - j(j+1)/2.

    E decreases from 2n**2 + 2n (j = 0) to n (j = 2n), so row n first
    contributes at q-exponent n and rows beyond the retained q-order are
    dropped; within a row, j runs down from 2n and stops at the first E
    beyond the retained q-order.  The extra parameter keeps additional rows;
    results must be independent of it."""
    if extra < 0:
        raise ValueError(f"extra must be >= 0, got {extra}")
    order = (trunc - 1) // 2

    def rows() -> Iterator[tuple[int, int, int, int]]:
        for n in range(0, order + extra + 1):
            for j in range(2 * n, -1, -1):
                e = 2 * n * n + 2 * n - j * (j + 1) // 2
                if e > order:
                    break
                yield e, 1, 1, 2 * n + 1
                yield e + 2 * n + 1, 1, 1, 2 * n + 1

    return _spread_to_u(_geometric_sum(order + 1, rows()), trunc)


# ---------------------------------------------------------------------------
# Independent combinatorial oracle: representation counts by brute force.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangularCounts:
    """Counts[m] = number of ordered triples (i, j, k) of nonnegative
    integers with T_i + T_j + T_k = m, for m = 0 .. order."""

    order: int
    counts: tuple[int, ...]


def triangular_counts_bruteforce(order: int) -> TriangularCounts:
    """Enumerate ordered triples of triangular numbers directly; this is the
    oracle the series representations are compared against."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    tri = [n * (n + 1) // 2 for n in range(math.isqrt(2 * order) + 1)]  # the last may pass order
    counts = [0] * (order + 1)
    for a in tri:
        for b in tri:
            if a + b > order:
                break  # tri increases, so every later b overshoots too
            for c in tri:
                m = a + b + c
                if m > order:
                    break
                counts[m] += 1
    return TriangularCounts(order, tuple(counts))


def to_csv_rows(series: USeries) -> list[str]:
    """Render a series as CSV rows 'exponent,numerator,denominator', one row
    per retained exponent, header first."""
    return ["exponent,numerator,denominator",
            *[f"{k},{c.numerator},{c.denominator}" for k, c in enumerate(series.coeffs)]]
