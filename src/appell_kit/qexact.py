"""Exact truncated power series over Z for coefficient-level identity proofs.

The numeric kernel certifies identities to ~1e-13 at sampled points; this
module removes the sampling for the theta-constant identities by computing
both sides as truncated power series with exact integer coefficients:
agreement of two degree-(T-1) truncations is a finite, exact statement.

A sum of rows c * x**e / (1 - s * x**k), as in theta and 2 kappa at the
2-torsion points and both double-sum forms, is built in one list of ints.
An s = +1 row is one strided slice, or, with at most SHORT_ROW terms, that
many index updates; an s = -1 row is one strided slice of c, -c, c, ...
The s = +1 rows of one step k, when there are more than k / 2 of them, are
packed instead: each adds c shifted by e slots to one int of signed slots,
as a product packs its operand (below), and the doublings (1 + x**k),
(1 + x**2k), (1 + x**4k), ... below the truncation make it the sum over
1 / (1 - x**k).  All packed groups add into one int, unpacked once.
Rows are grouped by step, for each n of the double sums (step 2n + 1) where
it is built.  The double sums are even in u, so they are summed in q and
spread to u once; Andrews' terms for n > order // 3 are q**n alone, one
slice of ones.

A product is term-wise and packed, reads its operands in place, and takes
any number of factors in one pass (``USeries.times``).  The operand with the
fewest zeros fills w-byte slots of one int, 8w >= bitlen(max|b|) + 1 + the
sum of bitlen(l1) over the other factors, l1 a factor's sum of |c| (1, 2, 4
or 8 bytes when that suffices), so every coefficient c of every partial
product, at most max|b| times the product of those l1, has |c| < h =
2**(8w-1).  Each nonzero term c * x**j of the next factor (here a theta
series or psi(q), O(sqrt(t)) terms) adds c times that int shifted by j
slots; those nonzeros, listed once, give the factor's l1, and c times the
int is formed once per distinct c (a theta null has only +-1 and +-2).  A
signed slot with its top bit flipped holds c + h; subtracting h from each
slot gives the operand.  With h added to every slot of the sum, each kept
slot is c + h, in [0, 2h); the mask to t slots drops the higher slots,
however negative, without a borrow from the kept ones.  Between factors,
subtracting h from each masked slot packs the partial product; after the
last, flipping the top bits reads each slot.

Series in u, the half-nome (q = u**2), hold theta and 2 kappa at the
2-torsion points +-1 and +-u, kappa doubled as kappa(-1, u) has the constant
term 1/2; series in q, from even u-series via :func:`as_q_series`, the
triangular-number generating function psi(q).  FOR1 and FOR2 are checked in
q: u -> -u swaps the two terms of one side of each, so once the u-series are
checked to have that symmetry only the even part of that side carries the
relation, half the coefficients: the even slots of one pass in u.

``suite_outcomes`` is the verify report's exact suite: FOR1, FOR2 and psi(q)**3.
"""

from __future__ import annotations

import math
import struct
from itertools import compress, cycle, repeat
from operator import add, index, ne, sub
from typing import Iterable, Iterator, Mapping, Sequence

from appell_kit.numeric import Outcome


class TruncationMismatchError(ValueError):
    """Requested a coefficient beyond the retained truncation order."""


_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct's signed w-byte ints


def _slots(bits: int, t: int) -> tuple[int, int]:
    """(w, signs): the slot width in bytes for signed values of ``bits``
    bits, sign included (1, 2, 4 or 8 when that suffices), and the int that
    holds the offset h = 2**(8w - 1) in each of t slots."""
    w = next((n for n in (1, 2, 4, 8) if 8 * n >= bits), -(-bits // 8))
    return w, int.from_bytes((bytes(w - 1) + b"\x80") * t, "little")


def _unpack(acc: int, w: int, t: int, signs: int) -> list[int]:
    """The t signed w-byte slots of acc, whose sum started at signs: the mask
    to t slots drops the higher ones and flipping each top bit reads the
    slot as c, as struct's signed ints or, past 8 bytes, by int.from_bytes."""
    data = ((acc & ((1 << 8 * w * t) - 1)) ^ signs).to_bytes(w * t, "little")
    code = _CODES.get(w)
    if code:
        return list(struct.unpack(f"<{t}{code}", data))
    return [int.from_bytes(data[i : i + w], "little", signed=True) for i in range(0, w * t, w)]


class USeries:
    """Truncated power series sum_{k < trunc} coeffs[k] * x**k with exact
    integer coefficients.  Arithmetic truncates to the shorter operand, the
    standard semantics for series known only up to their truncation order.

    Every constructor takes each coefficient through ``operator.index``, so
    a rational or a float is refused with TypeError, never truncated."""

    __slots__ = ("trunc", "_coeffs")

    def __init__(self, trunc: int, coeffs: Sequence[int]) -> None:
        if trunc < 1:
            raise ValueError(f"trunc must be >= 1, got {trunc}")
        if len(coeffs) != trunc:
            raise ValueError(f"need exactly {trunc} coefficients, got {len(coeffs)}")
        self.trunc = trunc
        self._coeffs = list(map(index, coeffs))

    @classmethod
    def _make(cls, trunc: int, coeffs: list[int]) -> "USeries":
        """Wrap ints the caller hands over (and no longer touches)."""
        series = object.__new__(cls)
        series.trunc = trunc
        series._coeffs = coeffs
        return series

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "USeries":
        return cls._make(trunc, [0] * trunc)

    @classmethod
    def one(cls, trunc: int) -> "USeries":
        return cls.monomial(0, trunc)

    @classmethod
    def monomial(cls, exponent: int, trunc: int, coeff: int = 1) -> "USeries":
        if not 0 <= exponent < trunc:
            raise TruncationMismatchError(
                f"exponent {exponent} outside retained range [0, {trunc})"
            )
        return cls.from_terms({exponent: coeff}, trunc)

    @classmethod
    def from_terms(cls, terms: Mapping[int, int], trunc: int) -> "USeries":
        """Build from an exponent -> coefficient mapping; exponents at or
        beyond trunc are discarded (they are not representable), negative
        exponents are rejected."""
        coeffs = [0] * trunc
        for e, v in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e} in series terms")
            v = index(v)
            if e < trunc:
                coeffs[e] = v
        return cls._make(trunc, coeffs)

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "USeries") -> int:
        if not isinstance(other, USeries):
            raise TypeError(f"expected USeries, got {type(other).__name__}")
        return min(self.trunc, other.trunc)

    def __add__(self, other: "USeries") -> "USeries":
        t = self._aligned(other)
        return USeries._make(t, list(map(add, self._coeffs, other._coeffs)))

    def __sub__(self, other: "USeries") -> "USeries":
        t = self._aligned(other)
        return USeries._make(t, list(map(sub, self._coeffs, other._coeffs)))

    def __neg__(self) -> "USeries":
        return USeries._make(self.trunc, [-c for c in self._coeffs])

    def __mul__(self, other: "USeries") -> "USeries":
        return self.times(other)

    def times(self, *factors: "USeries") -> "USeries":
        """self times every factor in one packed pass, exact for coefficients
        of any size (see the module docstring for the width and the masks)."""
        t = min([self.trunc, *(self._aligned(f) for f in factors)])
        lists = [x._coeffs if x.trunc == t else x._coeffs[:t] for x in (self, *factors)]  # read only
        zeros = [coeffs.count(0) for coeffs in lists]
        b = lists.pop(zeros.index(min(zeros)))  # the packed operand; the others are factors
        rounds, bits = [], max(max(b), -min(b)).bit_length() + 1
        for a in lists:
            terms: dict[int, list[int]] = {}  # each nonzero coefficient of a -> its exponents
            for j, c in zip(compress(range(t), a), filter(None, a)):
                terms.setdefault(c, []).append(j)
            rounds.append(terms)
            bits += sum(abs(c) * len(exponents) for c, exponents in terms.items()).bit_length()
        w, signs = _slots(bits, t)
        code = _CODES.get(w)
        data = (struct.pack(f"<{t}{code}", *b) if code
                else b"".join([c.to_bytes(w, "little", signed=True) for c in b]))
        slot, mask, acc = 8 * w, (1 << 8 * w * t) - 1, int.from_bytes(data, "little") ^ signs
        for terms in rounds:
            packed, acc = (acc & mask) - signs, signs  # each kept slot held c + h
            for c, exponents in terms.items():
                term = c * packed  # once per distinct coefficient
                for j in exponents:
                    acc += term << slot * j
        return USeries._make(t, _unpack(acc, w, t, signs))

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
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    def coefficient(self, exponent: int) -> int:
        if not 0 <= exponent < self.trunc:
            raise TruncationMismatchError(
                f"coefficient {exponent} not retained (trunc = {self.trunc})"
            )
        return self._coeffs[exponent]

    def agrees_with(self, other: "USeries") -> int | None:
        """First exponent (below the shorter truncation) where the two series
        differ, or None if they agree on the full shared range; equal lists,
        compared first, need no scan."""
        t = self._aligned(other)
        a, b = (x._coeffs if x.trunc == t else x._coeffs[:t] for x in (self, other))
        return None if a == b else next(compress(range(t), map(ne, a, b)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, USeries):
            return NotImplemented
        return (self.trunc, self._coeffs) == (other.trunc, other._coeffs)

    def __hash__(self) -> int:
        return hash((self.trunc, tuple(self._coeffs)))

    def __repr__(self) -> str:
        return f"USeries(trunc={self.trunc!r}, coeffs={self.coeffs!r})"


def _geometric_sum(trunc: int, rows: Iterable[tuple[int, int, int, int]]) -> USeries:
    """sum of c * x**e / (1 - s * x**k) over the rows (e, c, s, k), with
    e >= 0, integer c, s = +1 or -1 and k >= 1, truncated below x**trunc.

    A row whose step reaches past the truncation adds c at e alone (a
    monomial); a row that starts there adds nothing.  The others are grouped
    by (s, k) and summed by :func:`_sum_groups`."""
    acc = [0] * trunc
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}  # (s, k) -> its rows (e, c)
    for e, c, s, k in rows:
        if e + k < trunc:
            groups.setdefault((s, k), []).append((e, c))
        elif e < trunc:
            acc[e] += c
    return _sum_groups(acc, groups.items())


SHORT_ROW = 16  # one strided slice costs about as much as 16 index updates


def _sum_groups(acc: list[int], groups: Iterable[tuple[tuple[int, int], list[tuple[int, int]]]]) -> USeries:
    """acc plus c * x**e / (1 - s * x**k) for the rows (e, c) of each group
    ((s, k), rows), every row with e < len(acc), as a series below
    x**len(acc).  A caller that knows its rows' steps hands them over grouped.

    An s = +1 row adds c at exponents e, e + k, e + 2k, ... as one strided
    slice, or, when it has at most SHORT_ROW terms (e >= len(acc) -
    SHORT_ROW * k), one index at a time; an s = -1 row adds c, -c, c, ...
    as one strided slice over cycle((c, -c)).  An s = +1 group with more
    than k / 2 rows is packed instead: each row adds c << slot * e to one
    int, and the doublings p + (p << slot * k), k, 2k, 4k, ... below the
    truncation, masked to its slots, multiply it by 1 / (1 - x**k).  The
    packed groups share one total, unpacked once and added to acc; its
    slots are signed and hold the sum of |c| over those rows, which bounds
    every coefficient they add."""
    trunc = len(acc)
    packed = []
    for (s, k), group in groups:
        if s == 1 and 2 * len(group) > k:
            packed.append((k, group))
        elif s == 1:
            short = trunc - SHORT_ROW * k
            for e, c in group:
                if e < short:
                    acc[e::k] = map(add, acc[e::k], repeat(c))
                else:
                    for i in range(e, trunc, k):
                        acc[i] += c
        else:
            for e, c in group:
                acc[e::k] = map(add, acc[e::k], cycle((c, -c)))
    if not packed:
        return USeries._make(trunc, acc)
    w, signs = _slots(sum(abs(c) for _, group in packed for _, c in group).bit_length() + 1, trunc)
    slot, mask, total = 8 * w, (1 << 8 * w * trunc) - 1, signs
    for k, group in packed:
        p = 0
        for e, c in group:
            p += c << slot * e
        while k < trunc:
            p = (p + (p << slot * k)) & mask
            k += k
        total += p
    return USeries._make(trunc, list(map(add, acc, _unpack(total, w, trunc, signs))))


def _spread_to_u(series: USeries, trunc: int) -> USeries:
    """The even u-series below u**trunc of a q-series of (trunc + 1) // 2 terms."""
    coeffs = [0] * trunc
    coeffs[::2] = series._coeffs
    return USeries._make(trunc, coeffs)


# ---------------------------------------------------------------------------
# theta and 2 kappa at the 2-torsion points +-1 and +-u as exact u-series.
# ---------------------------------------------------------------------------


def _require_two_torsion(sign: int, exp: int) -> None:
    """Refuse a point other than +-1 and +-u: its rows could start below u**0."""
    if index(sign) not in (1, -1) or index(exp) not in (0, 1):
        raise ValueError(f"need a sign of +-1 and an exponent of 0 or 1, got {sign} * u**{exp}")


def theta_at(sign: int, exp: int, trunc: int) -> USeries:
    """theta(sign * u**exp) = sum over all n of sign**n u**(n**2 + exp*n), one
    monomial row per n; n and -n - exp share an exponent, so theta(-u) is
    the zero series."""
    _require_two_torsion(sign, exp)
    r = math.isqrt(trunc)
    rows = ((n * n + exp * n, sign ** (n & 1), 1, trunc) for n in range(-r - 1, r + 1))
    return _geometric_sum(trunc, rows)


def twice_kappa_at(a_sign: int, a_exp: int, z_sign: int, z_exp: int, trunc: int) -> USeries:
    """2 kappa(a, z) at the 2-torsion points a = s_a u**alpha and z = s_z u**zeta,
    from kappa(a, z) = sum_n u**(n**2) z**n / (u**(2n) - a), as the rows

        2n > alpha: -2 s_a s_z**n u**(n**2 + zeta n - alpha) / (1 - s_a u**(2n - alpha))
        2n < alpha:  2 s_z**n u**(n**2 + zeta n - 2n) / (1 - s_a u**(alpha - 2n))

    and, for a = -1, the n = 0 term 2 / (1 - a) = 1; a = 1 is the pole q**0.
    When alpha + zeta = 1, rows n and alpha - n coincide; rows that share an
    exponent and a step are merged, so each strided slice is added once.
    |n| runs to isqrt(trunc), past which every row starts beyond u**(trunc-1)."""
    _require_two_torsion(a_sign, a_exp)
    _require_two_torsion(z_sign, z_exp)
    if (a_sign, a_exp) == (1, 0):
        raise ValueError("kappa(a, z) has the pole q**0 at a = 1")

    def rows() -> Iterator[tuple[int, int, int, int]]:
        # run only once _geometric_sum has allocated its list, so an order
        # too large for that list fails before any row is merged
        merged: dict[tuple[int, int], int] = {}  # (e, k) -> c
        for n in range(-math.isqrt(trunc), math.isqrt(trunc) + 1):
            if 2 * n > a_exp:
                key, c = (n * n + z_exp * n - a_exp, 2 * n - a_exp), -2 * a_sign * z_sign ** (n & 1)
            elif 2 * n < a_exp:
                key, c = (n * n + z_exp * n - 2 * n, a_exp - 2 * n), 2 * z_sign ** (n & 1)
            else:
                key, c = (0, trunc), 1
            merged[key] = merged.get(key, 0) + c
        yield from ((e, c, a_sign, k) for (e, k), c in merged.items() if c)

    return _geometric_sum(trunc, rows())


# ---------------------------------------------------------------------------
# The two theta-constant three-term relations, checked coefficientwise.
# ---------------------------------------------------------------------------


def _first(*exponents: int | None) -> int | None:
    """The least of the exponents that are not None, or None."""
    return min(filter(lambda e: e is not None, exponents), default=None)


def _first_odd_exponent(series: USeries) -> int | None:
    """The first odd exponent with a nonzero coefficient, or None."""
    return next(compress(range(1, series.trunc, 2), series._coeffs[1::2]), None)


def _first_asymmetry(series: USeries, image: USeries) -> int | None:
    """The first exponent k where image's coefficient is not (-1)**k times
    series', or None if image is series at -u, as the two halves compare
    equal before any scan."""
    a, b = series._coeffs, image._coeffs
    if a[0::2] == b[0::2] and a[1::2] == [-c for c in b[1::2]]:
        return None
    return _first(next(compress(range(0, len(a), 2), map(ne, a[0::2], b[0::2])), None),
                  next(compress(range(1, len(a), 2), map(add, a[1::2], b[1::2])), None))


def _even_slots(series: USeries) -> USeries:
    """The even-exponent coefficients of a u-series, as a q-series."""
    return USeries._make((series.trunc + 1) // 2, series._coeffs[0::2])


def _for_series(trunc: int, built: dict | None) -> list:
    """theta(1), theta(-1), theta(u), 2 kappa(u, -1) and 2 kappa(-u, 1), the
    series both relations use, then theta(u) as a q-series and the first
    exponent where theta(-1) is not theta(1) at -u, 2 kappa(-u, 1) is not
    2 kappa(u, -1) at -u, or theta(u) is not even.  A caller that passes
    one dict to both checks has them built once; the dict keeps them under
    trunc."""
    built = {} if built is None else built
    if trunc not in built:
        plus, minus, half = theta_at(1, 0, trunc), theta_at(-1, 0, trunc), theta_at(1, 1, trunc)
        k_plus, k_minus = twice_kappa_at(1, 1, -1, 0, trunc), twice_kappa_at(-1, 1, 1, 0, trunc)
        mismatch = _first(_first_asymmetry(plus, minus), _first_asymmetry(k_plus, k_minus),
                          _first_odd_exponent(half))
        built[trunc] = [plus, minus, half, k_plus, k_minus, _even_slots(half), mismatch]
    return built[trunc]


def for1_sides(trunc: int) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(1) 2kappa(u,-1) + theta(-1) 2kappa(-u,1)
    = theta(u)**3 as exact u-series."""
    plus, minus, half, k_plus, k_minus = _for_series(trunc, None)[:5]
    return k_plus.times(plus) + k_minus.times(minus), half.times(half, half)


def for2_sides(trunc: int) -> tuple[USeries, USeries]:
    """(lhs, rhs) of theta(u)**3 2kappa(-1,u) = theta(-1)**3 2kappa(u,-1)
    + theta(1)**3 2kappa(-u,1) as exact u-series.

    Each dense kappa series is multiplied by its sparse theta nulls three
    times over, in one pass, rather than by the dense cube; truncated
    products are associative, so the coefficients are the same."""
    plus, minus, half, k_plus, k_minus = _for_series(trunc, None)[:5]
    lhs = twice_kappa_at(-1, 0, 1, 1, trunc).times(half, half, half)
    return lhs, k_plus.times(minus, minus, minus) + k_minus.times(plus, plus, plus)


def _u_exponent(q_exponent: int | None) -> int | None:
    return None if q_exponent is None else 2 * q_exponent


def check_for1_exact(trunc: int, built: dict | None = None) -> int | None:
    """None if the first relation holds through u**(trunc-1); otherwise the
    first failing exponent.  Checks passed one ``built`` dict share series.

    u -> -u (tau -> tau + 1) swaps the two terms on the left and fixes
    theta(u), so, once theta(-1) and 2 kappa(-u, 1) are checked to be the
    images of theta(1) and 2 kappa(u, -1) and theta(u) to be even, the
    relation is its even part in q = u**2, of half the length:
    2 (K theta(1))0 = theta(u)0**3, K = 2 kappa(u, -1) and s0 the even slots
    of s, each side one pass.  A q-mismatch at m is the u-exponent 2m."""
    plus, _, _, k_plus, _, half_q, mismatch = _for_series(trunc, built)
    lhs = _even_slots(k_plus.times(plus))
    return _first(mismatch, _u_exponent((lhs + lhs).agrees_with(half_q.times(half_q, half_q))))


def check_for2_exact(trunc: int, built: dict | None = None) -> int | None:
    """None if the second relation holds through u**(trunc-1); otherwise the
    first failing exponent.  Checks passed one ``built`` dict share series.

    As for the first relation, u -> -u swaps the two terms on the right, so
    with 2 kappa(-1, u) checked even the relation is
    2kappa(-1,u)0 theta(u)0**3 = 2 (K theta(-1)**3)0, each side one pass."""
    _, minus, _, k_plus, _, half_q, mismatch = _for_series(trunc, built)
    a = twice_kappa_at(-1, 0, 1, 1, trunc)
    lhs = _even_slots(a).times(half_q, half_q, half_q)
    rhs = _even_slots(k_plus.times(minus, minus, minus))
    return _first(mismatch, _first_odd_exponent(a), _u_exponent(lhs.agrees_with(rhs + rhs)))


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
    odd = _first_odd_exponent(series)
    if odd is not None:
        raise ValueError(
            f"series has nonzero coefficient at odd exponent {odd}; not a q-series"
        )
    return _even_slots(series)


def double_sum_series(trunc: int) -> USeries:
    """Alternating double-sum form of psi(q)**3, returned as a u-series
    (q = u**2, all exponents even):

        sum_{n>=0} (-1)**n / (1 - q**(2n+1)) *
            sum_l [ q**((n-l)**2 + l**2 + n) + q**((n-l)**2 + (l+1)**2 + n) ]

    With m = 2l - n the two q-exponents are (m**2 + n**2 + 2n)/2 and
    (m'**2 + n**2 + 4n + 1)/2, m' = m + 1; each is even in its m, so row n
    takes m >= 0 of the parity of n (m' >= 0 of the other), twice when
    nonzero, and stops at the first exponent beyond the retained q-order.
    Row n's smallest q-exponent is at least n**2/2 + n, so the rows stop
    once n**2//2 + n passes that order.  Each n is one group of step 2n + 1;
    its rows whose step passes the order are monomials."""
    order = (trunc - 1) // 2  # largest retained q-exponent
    acc, groups, n = [0] * (order + 1), [], 0
    while n * n // 2 + n <= order:
        sign, k, group = -1 if n % 2 else 1, 2 * n + 1, []
        for m, rest in ((n % 2, n * n + 2 * n), (1 - n % 2, n * n + 4 * n + 1)):
            while (q_exp := (m * m + rest) // 2) <= order:
                c = sign * (2 if m else 1)
                if q_exp + k <= order:
                    group.append((q_exp, c))
                else:
                    acc[q_exp] += c
                m += 2
        groups.append(((1, k), group))
        n += 1
    return _spread_to_u(_sum_groups(acc, groups), trunc)


def andrews_series(trunc: int) -> USeries:
    """Positive double-sum form of psi(q)**3, returned as a u-series
    (q = u**2, all exponents even):

        sum_{n>=0} 1 / (1 - q**(2n+1)) *
            sum_{j=0}^{2n} [ q**E + q**(E + 2n+1) ],  E = 2n**2 + 2n - j(j+1)/2.

    E decreases from 2n**2 + 2n (j = 0) to n (j = 2n), so j runs down from
    2n to the first E past the retained q-order.  With k = 2n + 1 each pair
    is a row and a monomial, (q**E + q**(E+k)) / (1 - q**k) = 2 q**E / (1 - q**k)
    - q**E, or q**E alone when E + k passes the order; each n is one group,
    its monomials added to the same list.  E at j = 2n - 1 is 3n, so each n
    past order // 3 adds q**n alone: that tail is one slice of ones."""
    order = (trunc - 1) // 2
    third = order // 3
    acc, groups = [0] * (third + 1) + [1] * (order - third), []
    for n in range(third + 1):
        k, group = 2 * n + 1, []
        for j in range(2 * n, -1, -1):
            e = 2 * n * n + 2 * n - j * (j + 1) // 2
            if e > order:
                break
            if e + k > order:
                acc[e] += 1
            else:
                acc[e] -= 1
                group.append((e, 2))
        groups.append(((1, k), group))
    return _spread_to_u(_sum_groups(acc, groups), trunc)


# ---------------------------------------------------------------------------
# Independent combinatorial oracle: representation counts by brute force.
# ---------------------------------------------------------------------------


def triangular_counts_bruteforce(order: int) -> tuple[int, ...]:
    """counts[m], for m = 0 .. order, is the number of ordered triples
    (i, j, k) of nonnegative integers with T_i + T_j + T_k = m, the oracle
    the series are compared against: the pairs (i, j) are counted once by
    T_i + T_j, and each T_k adds those counts as one slice shifted by T_k."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    tri = [n * (n + 1) // 2 for n in range(math.isqrt(2 * order) + 1)]  # the last may pass order
    pairs, counts = [0] * (order + 1), [0] * (order + 1)
    for a in tri:
        for b in tri:
            if a + b > order:
                break  # tri increases, so every later b overshoots too
            pairs[a + b] += 1
    for c in tri:
        counts[c:] = map(add, counts[c:], pairs)  # empty when c passes order
    return tuple(counts)


def to_csv_rows(series: USeries) -> list[str]:
    """Render a series as CSV rows 'exponent,numerator,denominator', one row
    per retained exponent, header first; every denominator is 1."""
    return ["exponent,numerator,denominator", *[f"{k},{c},1" for k, c in enumerate(series._coeffs)]]


# ---------------------------------------------------------------------------
# The named series of the qseries command, and the exact verify suite.
# ---------------------------------------------------------------------------

QSERIES_NAMES = ("t3", "double_sum", "andrews", "for1_lhs", "for1_rhs", "for2_lhs", "for2_rhs")

RECORD_IDS = ("FOR1_EXACT", "FOR2_EXACT", "TRIANGULAR_DOUBLE_SUM", "TRIANGULAR_ANDREWS", "TRIANGULAR_COUNTS")


def named_series(name: str, order: int) -> tuple[USeries, str]:
    """The series ``name`` of ``QSERIES_NAMES`` through q**order (u**(2 order + 1)
    for a FOR side), with its variable, "q" or "u"."""
    trunc = 2 * order + 2
    if name == "t3":
        gf = triangular_gf(order + 1)
        return gf.times(gf, gf), "q"
    if name in ("double_sum", "andrews"):
        return as_q_series((double_sum_series if name == "double_sum" else andrews_series)(trunc)), "q"
    lhs, rhs = (for1_sides if name.startswith("for1") else for2_sides)(trunc)
    return (lhs if name.endswith("lhs") else rhs), "u"


def suite_outcomes(exact_order: int, ids: Sequence[str] = RECORD_IDS) -> list[Outcome]:
    """The exact records among ``ids``: FOR1_EXACT and FOR2_EXACT are each
    built only when wanted, the three triangular records together when any
    of them is."""
    built: dict = {}  # the series FOR1 and FOR2 share, built once per call
    outcomes = [
        Outcome(f"{relation}_EXACT", None, f"coefficients through u**{exact_order - 1} agree",
                check(exact_order, built))
        for relation, check in (("FOR1", check_for1_exact), ("FOR2", check_for2_exact))
        if f"{relation}_EXACT" in ids
    ]
    if not any(record_id.startswith("TRIANGULAR_") for record_id in ids):
        return outcomes
    q_order = exact_order // 2
    cube, _ = named_series("t3", q_order)
    detail = f"matches the cubed generating function through q**{q_order}"
    for record_id, route in (("TRIANGULAR_DOUBLE_SUM", "double_sum"), ("TRIANGULAR_ANDREWS", "andrews")):
        outcomes.append(Outcome(record_id, None, detail, cube.agrees_with(named_series(route, q_order)[0])))
    counts = triangular_counts_bruteforce(q_order)
    detail = f"series coefficients equal brute-force triple counts through {q_order}"
    outcomes.append(Outcome("TRIANGULAR_COUNTS", None, detail, cube.agrees_with(USeries(len(counts), counts))))
    return outcomes
