"""Exact truncated power series over Q for coefficient-level identity proofs.

The numeric kernel certifies identities to ~1e-13 at sampled points; this
module removes the sampling entirely for the theta-constant identities by
computing both sides as truncated power series with Fraction coefficients
and comparing coefficient lists.  Agreement of two degree-(T-1) truncations
here is a finite, exact statement: every coefficient through u**(T-1)
matches as a rational number.

Two variables appear, both handled by the same USeries container:

* u, the half-nome (q = u**2), used for the theta null values and the
  kappa special values entering the two three-term relations;
* q itself, used for the triangular-number generating function.  Series in
  q are obtained from even u-series via :func:`as_q_series`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


class TruncationMismatchError(ValueError):
    """Requested a coefficient beyond the retained truncation order."""


@dataclass(frozen=True)
class USeries:
    """Truncated power series sum_{k < trunc} coeffs[k] * x**k with exact
    rational coefficients.  Arithmetic truncates to the shorter operand, the
    standard semantics for series known only up to their truncation order."""

    trunc: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.trunc < 1:
            raise ValueError(f"trunc must be >= 1, got {self.trunc}")
        if len(self.coeffs) != self.trunc:
            raise ValueError(
                f"need exactly {self.trunc} coefficients, got {len(self.coeffs)}"
            )
        object.__setattr__(
            self, "coeffs", tuple(Fraction(c) for c in self.coeffs)
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "USeries":
        return cls(trunc, (Fraction(0),) * trunc)

    @classmethod
    def one(cls, trunc: int) -> "USeries":
        return cls.monomial(0, trunc)

    @classmethod
    def monomial(cls, exponent: int, trunc: int, coeff: Fraction | int = 1) -> "USeries":
        if not 0 <= exponent < trunc:
            raise TruncationMismatchError(
                f"exponent {exponent} outside retained range [0, {trunc})"
            )
        c = [Fraction(0)] * trunc
        c[exponent] = Fraction(coeff)
        return cls(trunc, tuple(c))

    @classmethod
    def from_terms(cls, terms: Mapping[int, Fraction | int], trunc: int) -> "USeries":
        """Build from an exponent -> coefficient mapping; exponents at or
        beyond trunc are discarded (they are not representable), negative
        exponents are rejected."""
        c = [Fraction(0)] * trunc
        for e, v in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e} in series terms")
            if e < trunc:
                c[e] += Fraction(v)
        return cls(trunc, tuple(c))

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "USeries") -> int:
        if not isinstance(other, USeries):
            raise TypeError(f"expected USeries, got {type(other).__name__}")
        return min(self.trunc, other.trunc)

    def __add__(self, other: "USeries") -> "USeries":
        t = self._aligned(other)
        return USeries(t, tuple(self.coeffs[k] + other.coeffs[k] for k in range(t)))

    def __sub__(self, other: "USeries") -> "USeries":
        t = self._aligned(other)
        return USeries(t, tuple(self.coeffs[k] - other.coeffs[k] for k in range(t)))

    def __neg__(self) -> "USeries":
        return USeries(self.trunc, tuple(-c for c in self.coeffs))

    def scale(self, factor: Fraction | int) -> "USeries":
        f = Fraction(factor)
        return USeries(self.trunc, tuple(f * c for c in self.coeffs))

    def __mul__(self, other: "USeries") -> "USeries":
        t = self._aligned(other)
        a = [(i, c) for i, c in enumerate(self.coeffs[:t]) if c]
        b = [(j, c) for j, c in enumerate(other.coeffs[:t]) if c]
        if len(b) < len(a):  # iterate the sparser factor outermost
            a, b = b, a
        acc = [Fraction(0)] * t
        for i, ci in a:
            for j, cj in b:
                k = i + j
                if k >= t:
                    break
                acc[k] += ci * cj
        return USeries(t, tuple(acc))

    def __pow__(self, exponent: int) -> "USeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent}")
        result = USeries.one(self.trunc)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- queries ------------------------------------------------------

    def coefficient(self, exponent: int) -> Fraction:
        if not 0 <= exponent < self.trunc:
            raise TruncationMismatchError(
                f"coefficient {exponent} not retained (trunc = {self.trunc})"
            )
        return self.coeffs[exponent]

    def agrees_with(self, other: "USeries") -> int | None:
        """First exponent (below the shorter truncation) where the two series
        differ, or None if they agree on the full shared range."""
        t = self._aligned(other)
        for k in range(t):
            if self.coeffs[k] != other.coeffs[k]:
                return k
        return None

    def evaluate(self, x: complex) -> complex:
        """Horner evaluation of the truncated polynomial at a complex point."""
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc


def geom_inverse(sign: int, step: int, trunc: int) -> USeries:
    """The geometric series 1 / (1 - sign * x**step) = sum_j sign**j x**(j*step).

    step = 0 would be a constant denominator, not a series inverse, and is
    rejected."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return USeries.from_terms(
        {j * step: sign**j for j in range((trunc - 1) // step + 1)}, trunc
    )


# ---------------------------------------------------------------------------
# Theta null values and kappa special values as exact u-series.
# ---------------------------------------------------------------------------


def theta_null_plus(trunc: int) -> USeries:
    """theta(1, u) = 1 + 2 sum_{n>=1} u**(n**2)."""
    terms: dict[int, int] = {0: 1}
    n = 1
    while n * n < trunc:
        terms[n * n] = 2
        n += 1
    return USeries.from_terms(terms, trunc)


def theta_null_minus(trunc: int) -> USeries:
    """theta(-1, u) = 1 + 2 sum_{n>=1} (-1)**n u**(n**2)."""
    terms: dict[int, int] = {0: 1}
    n = 1
    while n * n < trunc:
        terms[n * n] = -2 if n % 2 else 2
        n += 1
    return USeries.from_terms(terms, trunc)


def theta_null_half(trunc: int) -> USeries:
    """theta(u, u) = 2 sum_{n>=0} u**(n**2+n); the exponents n**2 + n are
    twice the triangular numbers, so this is 2 * psi(q) at q = u**2."""
    terms: dict[int, int] = {}
    n = 0
    while n * n + n < trunc:
        terms[n * n + n] = 2
        n += 1
    return USeries.from_terms(terms, trunc)


def kappa_u_at_minus_one(trunc: int) -> USeries:
    """kappa(u, -1) = 2 sum_{n>=0} (-1)**n u**(n**2+2n) / (1 - u**(2n+1)),
    from the one-sided kappa(u, z) series at z = -1 where the two z-powers
    of each term coincide."""
    total = USeries.zero(trunc)
    n = 0
    while n * n + 2 * n < trunc:
        lead = USeries.monomial(n * n + 2 * n, trunc, 2 * (-1) ** n)
        total = total + lead * geom_inverse(1, 2 * n + 1, trunc)
        n += 1
    return total


def kappa_minus_u_at_one(trunc: int) -> USeries:
    """kappa(-u, 1) = 2 sum_{n>=0} u**(n**2+2n) / (1 + u**(2n+1))."""
    total = USeries.zero(trunc)
    n = 0
    while n * n + 2 * n < trunc:
        lead = USeries.monomial(n * n + 2 * n, trunc, 2)
        total = total + lead * geom_inverse(-1, 2 * n + 1, trunc)
        n += 1
    return total


def kappa_minus_one_at_u(trunc: int) -> USeries:
    """kappa(-1, u) = 1/2 + 2 sum_{m>=1} u**(m**2+m) / (1 + u**(2m)), by
    folding the bilateral sum at n <-> -n (the paired terms are equal)."""
    total = USeries.monomial(0, trunc, Fraction(1, 2))
    m = 1
    while m * m + m < trunc:
        lead = USeries.monomial(m * m + m, trunc, 2)
        total = total + lead * geom_inverse(-1, 2 * m, trunc)
        m += 1
    return total


# ---------------------------------------------------------------------------
# The two theta-constant three-term relations, checked coefficientwise.
# ---------------------------------------------------------------------------


def for1_sides(trunc: int = 80) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(1) kappa(u,-1) + theta(-1) kappa(-u,1)
    = theta(u)**3 / 2 as exact u-series."""
    lhs = theta_null_plus(trunc) * kappa_u_at_minus_one(trunc) + theta_null_minus(
        trunc
    ) * kappa_minus_u_at_one(trunc)
    rhs = (theta_null_half(trunc) ** 3).scale(Fraction(1, 2))
    return lhs, rhs


def for2_sides(trunc: int = 80) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(u)**3 kappa(-1,u) = theta(-1)**3 kappa(u,-1)
    + theta(1)**3 kappa(-u,1) as exact u-series."""
    lhs = theta_null_half(trunc) ** 3 * kappa_minus_one_at_u(trunc)
    rhs = theta_null_minus(trunc) ** 3 * kappa_u_at_minus_one(trunc) + theta_null_plus(
        trunc
    ) ** 3 * kappa_minus_u_at_one(trunc)
    return lhs, rhs


def check_for1_exact(trunc: int = 80) -> int | None:
    """None if the first relation holds through u**(trunc-1); otherwise the
    first failing exponent."""
    lhs, rhs = for1_sides(trunc)
    return lhs.agrees_with(rhs)


def check_for2_exact(trunc: int = 80) -> int | None:
    """None if the second relation holds through u**(trunc-1); otherwise the
    first failing exponent."""
    lhs, rhs = for2_sides(trunc)
    return lhs.agrees_with(rhs)


# ---------------------------------------------------------------------------
# Triangular-number generating function and its two double-sum forms.
# ---------------------------------------------------------------------------


def triangular_gf(trunc: int) -> USeries:
    """psi(q) = sum_{n>=0} q**(n(n+1)/2), the generating function of the
    triangular numbers, as a series in q."""
    terms: dict[int, int] = {}
    n = 0
    while n * (n + 1) // 2 < trunc:
        terms[n * (n + 1) // 2] = 1
        n += 1
    return USeries.from_terms(terms, trunc)


def as_q_series(series: USeries) -> USeries:
    """Reindex an even u-series as a series in q = u**2 (exponents halved).

    Raises ValueError if any odd-exponent coefficient is nonzero, since such
    a series has no expression in q."""
    for k in range(1, series.trunc, 2):
        if series.coeffs[k]:
            raise ValueError(
                f"series has nonzero coefficient at odd exponent {k}; not a q-series"
            )
    t = (series.trunc + 1) // 2
    return USeries(t, tuple(series.coeffs[2 * m] for m in range(t)))


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
    total = USeries.zero(trunc)
    order = (trunc - 1) // 2  # largest retained q-exponent
    window = math.isqrt(order) + 1 + extra
    n = 0
    while n * n // 2 + n <= order + extra:
        terms: dict[int, int] = {}
        for l in range(-window, window + 1):
            e = (n - l) ** 2 + l * l + n
            e2 = e + 2 * l + 1
            for q_exp in (e, e2):
                if 0 <= 2 * q_exp < trunc:
                    terms[2 * q_exp] = terms.get(2 * q_exp, 0) + 1
        if terms:
            row = USeries.from_terms(terms, trunc) * geom_inverse(1, 4 * n + 2, trunc)
            total = total + (-row if n % 2 else row)
        n += 1
    return total


def andrews_series(trunc: int, extra: int = 0) -> USeries:
    """Positive double-sum form of psi(q)**3, returned as a u-series
    (q = u**2, all exponents even):

        sum_{n>=0} 1 / (1 - q**(2n+1)) *
            sum_{j=0}^{2n} [ q**E + q**(E + 2n+1) ],  E = 2n**2 + 2n - j(j+1)/2.

    E decreases from 2n**2 + 2n (j = 0) to n (j = 2n), so row n first
    contributes at q-exponent n and rows beyond the retained q-order are
    dropped.  The extra parameter keeps additional rows; results must be
    independent of it."""
    if extra < 0:
        raise ValueError(f"extra must be >= 0, got {extra}")
    total = USeries.zero(trunc)
    order = (trunc - 1) // 2
    for n in range(0, order + extra + 1):
        terms: dict[int, int] = {}
        for j in range(0, 2 * n + 1):
            e = 2 * n * n + 2 * n - j * (j + 1) // 2
            for q_exp in (e, e + 2 * n + 1):
                if 0 <= 2 * q_exp < trunc:
                    terms[2 * q_exp] = terms.get(2 * q_exp, 0) + 1
        if terms:
            row = USeries.from_terms(terms, trunc) * geom_inverse(1, 4 * n + 2, trunc)
            total = total + row
    return total


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
    tri = []
    n = 0
    while n * (n + 1) // 2 <= order:
        tri.append(n * (n + 1) // 2)
        n += 1
    counts = [0] * (order + 1)
    for a in tri:
        for b in tri:
            if a + b > order:
                continue
            for c in tri:
                m = a + b + c
                if m <= order:
                    counts[m] += 1
    return TriangularCounts(order, tuple(counts))


def to_csv_rows(series: USeries) -> list[str]:
    """Render a series as CSV rows 'exponent,numerator,denominator', one row
    per retained exponent, header first."""
    rows = ["exponent,numerator,denominator"]
    for k, c in enumerate(series.coeffs):
        rows.append(f"{k},{c.numerator},{c.denominator}")
    return rows
