"""Numeric kernel for theta series and the Appell-Lerch function kappa.

Everything is evaluated in the half-nome u with q = u**2, so the
half-integer powers of q that appear throughout the classical formulas
become integer powers of u and no square root is ever taken at evaluation
time.  The quarter-nome variants (vartheta0, vartheta1) take their own
nome argument v with q = v**4 for the same reason.

All series are bilateral sums over n in Z, summed symmetrically outward
from n = 0.  They converge absolutely for every 0 < |u| < 1, so truncation
is a fixed stopping rule rather than a parameter: a series stops once its
next terms fall below TERM_EPS times the largest term seen, and gives up
with NonconvergenceError after MAX_TERMS terms.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TypeVar


POLE_GUARD = 1e-8

#: The one sampling distance: every sampled point keeps this distance,
#: relative to max(1, |value|), from kappa's poles and theta's zeros.  Far
#: more conservative than POLE_GUARD, it keeps the condition number of every
#: registry formula below ~1e3.
GUARD_TOL = 1e-3

#: Stopping rule of every series: relative size of the first neglected
#: terms, and the number of terms after which a series is refused.
TERM_EPS = 1e-16
MAX_TERMS = 200


class DomainError(ValueError):
    """Input outside the numeric domain (bad nome, zero binding, guard hit)."""


class PoleProximityError(DomainError):
    """A kappa denominator u**(2n) - a fell below the pole guard."""


class NonconvergenceError(ArithmeticError):
    """A series did not meet the stopping rule within its term budget."""


class NonReachableGuardError(DomainError):
    """Rejection sampling could not satisfy a guard within its draw cap
    (a misconfigured domain, not bad luck)."""


class Nome(NamedTuple("Nome", [("u", complex)])):
    """Half-nome u = q**(1/2) with 0 < |u| < 1."""

    __slots__ = ()

    def __new__(cls, u: complex) -> "Nome":
        _require_nome(u)
        return super().__new__(cls, u)

    @property
    def q(self) -> complex:
        return self.u * self.u


class EvalPoint(NamedTuple("EvalPoint", [("bindings", dict)])):
    """Named nonzero complex bindings (subset of z, a, b, s, v) for one
    evaluation of an identity, read as ``point.bindings[name]``."""

    __slots__ = ()

    def __new__(cls, bindings: Mapping[str, complex]) -> "EvalPoint":
        clean = {}
        for name, value in dict(bindings).items():
            value = complex(value)
            if value == 0:
                raise DomainError(f"binding {name!r} must be nonzero")
            clean[name] = value
        return super().__new__(cls, clean)


class ResidualReport(NamedTuple):
    """Outcome of one identity check: lhs, rhs and scaled residuals for the
    worst component pair."""

    identity_id: str
    point: EvalPoint
    nome: Nome
    lhs: complex
    rhs: complex
    abs_residual: float
    scale: float
    rel_residual: float

    @classmethod
    def from_pairs(
        cls,
        identity_id: str,
        point: EvalPoint,
        nome: Nome,
        pairs: list[tuple[complex, complex]],
    ) -> "ResidualReport":
        return cls(identity_id, point, nome, *worst_pair(pairs))


class Outcome(NamedTuple):
    """One verify record as its suite measured it: the worst residual
    (None for an exact record) and, for an exact record that fails, the
    first mismatching exponent.  The report's tolerance judges it."""

    record_id: str
    worst: float | None
    detail: str
    mismatch: int | None = None


def worst_pair(
    pairs: list[tuple[complex, complex]],
) -> tuple[complex, complex, float, float, float]:
    """``(lhs, rhs, abs_residual, scale, rel_residual)`` of the pair with the
    largest relative residual; the first such pair wins a tie, and a NaN
    residual never replaces the running worst."""
    if not pairs:
        raise DomainError("identity produced no value pairs")
    worst = None
    for lhs, rhs in pairs:
        abs_res = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), 1.0)
        rel = abs_res / scale
        if worst is None or rel > worst[4]:
            worst = (lhs, rhs, abs_res, scale, rel)
    return worst


def _require_nome(u: complex) -> None:
    r = abs(u)
    if not 0.0 < r < 1.0:
        raise DomainError(f"half-nome u must satisfy 0 < |u| < 1, got |u| = {r}")


def _require_nonzero(value: complex, name: str) -> None:
    if value == 0:
        raise DomainError(f"{name} must be nonzero")
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _check_finite(total: complex, name: str) -> complex:
    if not (cmath.isfinite(total)):
        raise NonconvergenceError(f"{name} overflowed during summation")
    return total


# The kernel's success path calls none of the helpers above, which cost a
# call per check on every kernel call: each check runs inline, and only a
# failing one calls its helper, which raises the message.
_isfinite, _log2, _floor = cmath.isfinite, math.log2, math.floor


def theta(z: complex, u: complex) -> complex:
    """Theta series sum_n u**(n*n) * z**n at nome q = u**2.

    Quasi-periodic: theta(q*z) = theta(z)/(u*z); zeros lie on -u * q**Z.
    """
    if not 0.0 < abs(u) < 1.0:
        _require_nome(u)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    eps = TERM_EPS
    total = 1.0 + 0.0j
    scale = 1.0
    lim = eps * scale
    u_sq = u * u
    pw = 1.0 + 0.0j  # u**(n*n), advanced by the odd power u**(2n-1)
    odd = u
    if z == 1 or z == -1:
        # Both terms are pw*z**(+-n) = +-pw: the general loop's pw*(+-1+0j)
        # equals +-pw in every nonzero part (IEEE rounding is symmetric in
        # sign), and a zero part's sign cannot reach total, which starts at
        # 1+0j.  Negating odd at z = -1 flips pw's sign on odd n the same way.
        if z == -1:
            odd = -u
        for n in range(1, MAX_TERMS + 1):
            pw *= odd
            odd *= u_sq
            a = abs(pw)
            if a < lim and n >= 3:
                return total if _isfinite(total) else _check_finite(total, "theta")
            total += pw + pw
            # scale stays 1: |pw| can round past 1 only for |u| within ulps of 1, which never stop.
        raise NonconvergenceError(f"theta did not converge within {MAX_TERMS} terms")
    zp = 1.0 + 0.0j
    zm = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        pw *= odd
        odd *= u_sq
        zp *= z
        zm /= z
        tp = pw * zp
        tm = pw * zm
        ap = abs(tp)
        am = abs(tm)
        if ap < lim and am < lim and n >= 3:
            return total if _isfinite(total) else _check_finite(total, "theta")
        total += tp + tm
        if ap > scale:
            scale = ap
            lim = eps * scale
        if am > scale:
            scale = am
            lim = eps * scale
    raise NonconvergenceError(f"theta did not converge within {MAX_TERMS} terms")


def theta2(z: complex, u: complex) -> complex:
    """Theta series at the squared nome: sum_n u**(2*n*n) * z**n = theta(z, u**2)."""
    if not 0.0 < abs(u) < 1.0:
        _require_nome(u)
    u_sq = u * u
    if u_sq == 0:
        raise DomainError(f"u**2 underflows to 0 at u = {u}")
    return theta(z, u_sq)


def _derived_argument_error(exc: DomainError, derived: Sequence[tuple[str, complex, str]]) -> DomainError:
    """The error to raise when theta refused an argument that a wrapper
    derived from its caller's values.  ``derived`` holds (expression,
    value, the caller's values) in theta's check order, nome first: the
    first value that underflows to 0 or overflows is reported at the
    caller's values, and any other refusal is raised as it was."""
    for expr, value, at in derived:
        if value == 0:
            return DomainError(f"{expr} underflows to 0 at {at}")
        if not cmath.isfinite(value):
            return DomainError(f"{expr} overflows at {at}")
    return exc


def vartheta0(z: complex, v: complex) -> complex:
    """Even half-period theta sum_n q**(n*n) * z**(2n) at q = v**4."""
    if not 0.0 < abs(v) < 1.0:
        _require_nome(v)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    v_sq = v * v
    v4 = v_sq * v_sq
    w = z * z
    try:
        return theta(w, v4)
    except DomainError as exc:
        at = f"z = {z}, v = {v}"
        raise _derived_argument_error(exc, (("v**4", v4, f"v = {v}"), ("z*z", w, at))) from None


def vartheta1(z: complex, v: complex) -> complex:
    """Odd half-period theta sum_n v**((2n+1)**2) * z**(2n+1) at q = v**4,
    summed as v * z * theta(z**2 * v**4) at nome v**4."""
    if not 0.0 < abs(v) < 1.0:
        _require_nome(v)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    v4 = v**4
    w = z * z * v4
    try:
        return v * z * theta(w, v4)
    except DomainError as exc:
        at = f"z = {z}, v = {v}"
        raise _derived_argument_error(exc, (("v**4", v4, f"v = {v}"), ("z*z*v**4", w, at))) from None


def dtheta_dz(z: complex, u: complex) -> complex:
    """Argument derivative sum_n n * u**(n*n) * z**(n-1) of theta.

    The n and -n terms are paired so dtheta_dz(1, u) cancels exactly.
    """
    if not 0.0 < abs(u) < 1.0:
        _require_nome(u)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    eps = TERM_EPS
    total = 0.0 + 0.0j
    scale = 0.0
    lim = eps * scale
    u_sq = u * u
    pw = 1.0 + 0.0j
    odd = u
    zp = 1.0 + 0.0j  # z**(n-1)
    zm = 1.0 / (z * z)  # z**(-n-1)
    for n in range(1, MAX_TERMS + 1):
        pw *= odd
        odd *= u_sq
        tp = n * pw * zp
        tm = n * pw * zm
        ap = abs(tp)
        am = abs(tm)
        if ap < lim and am < lim and n >= 3:
            return total if _isfinite(total) else _check_finite(total, "dtheta_dz")
        total += tp - tm
        if ap > scale:
            scale = ap
            lim = eps * scale
        if am > scale:
            scale = am
            lim = eps * scale
        zp *= z
        zm /= z
    raise NonconvergenceError(f"dtheta_dz did not converge within {MAX_TERMS} terms")


def kappa(a: complex, z: complex, u: complex) -> complex:
    """Appell-Lerch sum sum_n u**(n*n) * z**n / (u**(2n) - a) at q = u**2.

    Poles in the parameter a sit on q**Z; every denominator actually used
    is checked against POLE_GUARD * max(1, |a|).
    """
    if not 0.0 < abs(u) < 1.0:
        _require_nome(u)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    if a == 0 or not _isfinite(a):
        _require_nonzero(a, "a")
    eps = TERM_EPS
    # max() spelled out, here and for scale: the calls cost about 4% of kappa
    ra = abs(a)
    guard = POLE_GUARD * (ra if ra > 1.0 else 1.0)
    d0 = 1.0 - a
    if abs(d0) < guard:
        raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**0 = 1")
    total = 1.0 / d0
    scale = abs(total)
    if scale < 1e-300:
        scale = 1e-300
    lim = eps * scale
    u_sq = u * u
    if u_sq == 0:  # um below divides by it
        raise DomainError(f"u**2 underflows to 0 at u = {u}")
    pw = 1.0 + 0.0j
    odd = u
    up = 1.0 + 0.0j  # u**(2n)
    um = 1.0 + 0.0j  # u**(-2n)
    zp = 1.0 + 0.0j
    zm = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        pw *= odd
        odd *= u_sq
        up *= u_sq
        um /= u_sq
        zp *= z
        zm /= z
        dp = up - a
        dm = um - a
        if abs(dp) < guard:
            raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**{n}")
        if abs(dm) < guard:
            raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**{-n}")
        tp = pw * zp / dp
        tm = pw * zm / dm
        ap = abs(tp)
        am = abs(tm)
        if ap < lim and am < lim and n >= 3:
            return total if _isfinite(total) else _check_finite(total, "kappa")
        total += tp + tm
        if ap > scale:
            scale = ap
            lim = eps * scale
        if am > scale:
            scale = am
            lim = eps * scale
    raise NonconvergenceError(f"kappa did not converge within {MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# Sweeps: one theta or kappa series summed at many points, each value
# bit-identical to the scalar call at that point, with the same first error.
#
# theta has one summation loop: theta_sweep calls theta at each point.  A
# theta row sweep saved about 25 ms (9%) of the serial bundle suite at 2000
# samples, which no end-to-end run resolves, and cost a second loop to keep
# bit-identical.  kappa_sweep keeps its rows, because they pay end to end:
# through the scalar kappa, the 2000-sample report ran 13% slower on 2 CPUs.
# Its first point is the scalar call, the one place kappa's arguments are
# checked.  Each later point is checked before its sum and summed with
# kappa's stopping rule over rows of powers and pole-guarded denominators,
# built by kappa's own recurrences when a point first reads them and kept
# for the points after it.  The scalar kappa keeps its inline loop: summed
# over these rows instead, the one-point path slowed by about 12%.
# ---------------------------------------------------------------------------


def theta_sweep(zs: Sequence[complex], u: complex) -> list[complex]:
    """[theta(z, u) for z in zs]: the scalar theta at each point, called
    through this module's ``theta`` binding."""
    return [theta(z, u) for z in zs]


def _kappa_rows(
    a: complex, u: complex, guard: float, kept: list[tuple[int, complex, complex, complex]]
) -> Iterator[tuple[int, complex, complex, complex]]:
    """Rows (n, u**(n*n), u**(2n) - a, u**(-2n) - a) of the kappa series, by
    kappa's recurrences, each appended to ``kept`` before it is yielded;
    raises kappa's PoleProximityError at the first row whose denominator
    falls inside the guard."""
    u_sq = u * u
    pw = 1.0 + 0.0j
    odd = u
    up = 1.0 + 0.0j
    um = 1.0 + 0.0j
    for n in range(1, MAX_TERMS + 1):
        pw *= odd
        odd *= u_sq
        up *= u_sq
        um /= u_sq
        dp = up - a
        dm = um - a
        if abs(dp) < guard:
            raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**{n}")
        if abs(dm) < guard:
            raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**{-n}")
        row = (n, pw, dp, dm)
        kept.append(row)
        yield row


def _kappa_over_rows(
    z: complex,
    head: complex,
    rows: list[tuple[int, complex, complex, complex]],
    source: Iterator[tuple[int, complex, complex, complex]],
) -> complex:
    """kappa(a, z) summed with kappa's stopping rule from the n = 0 term
    ``head`` = 1 / (1 - a): over the rows built so far, then on over the
    rows ``source`` builds, until it runs out at MAX_TERMS rows."""
    eps = TERM_EPS
    total = head
    scale = abs(total)
    if scale < 1e-300:
        scale = 1e-300
    lim = eps * scale
    zp = 1.0 + 0.0j
    zm = 1.0 + 0.0j
    for part in (rows, source):
        for n, pw, dp, dm in part:
            zp *= z
            zm /= z
            tp = pw * zp / dp
            tm = pw * zm / dm
            ap = abs(tp)
            am = abs(tm)
            if ap < lim and am < lim and n >= 3:
                return total if _isfinite(total) else _check_finite(total, "kappa")
            total += tp + tm
            if ap > scale:
                scale = ap
                lim = eps * scale
            if am > scale:
                scale = am
                lim = eps * scale
    raise NonconvergenceError(f"kappa did not converge within {MAX_TERMS} terms")


def kappa_sweep(a: complex, zs: Sequence[complex], u: complex) -> list[complex]:
    """[kappa(a, z, u) for z in zs], bit for bit and with the same first
    error.  The first point is the scalar call, through this module's
    ``kappa`` binding.  Each later point is summed over rows of powers and
    denominators shared by all points and built as they are first read, so
    a pole raises kappa's PoleProximityError at the first point that reads
    its row."""
    if not zs:
        return []
    out = [kappa(a, zs[0], u)]
    guard = POLE_GUARD * max(1.0, abs(a))
    head = 1.0 / (1.0 - a)
    rows: list[tuple[int, complex, complex, complex]] = []
    source = _kappa_rows(a, u, guard, rows)
    for z in zs[1:]:
        if z == 0 or not _isfinite(z):
            _require_nonzero(z, "z")
        out.append(_kappa_over_rows(z, head, rows, source))
    return out


def kappa_bar(a: complex, z: complex, u: complex) -> complex:
    """Normalized variant theta(-a/u) * kappa(a, z): holomorphic in a across
    the kappa poles, but still guarded numerically by POLE_GUARD.  The
    bindings are checked in kappa's order before -a/u is formed, and an
    underflow or overflow of -a/u is reported at the caller's a and u."""
    if not 0.0 < abs(u) < 1.0:
        _require_nome(u)
    if z == 0 or not _isfinite(z):
        _require_nonzero(z, "z")
    if a == 0 or not _isfinite(a):
        _require_nonzero(a, "a")
    w = -a / u
    try:
        scale = theta(w, u)
    except DomainError as exc:
        raise _derived_argument_error(exc, (("-a/u", w, f"a = {a}, u = {u}"),)) from None
    return scale * kappa(a, z, u)


def qpochhammer(x: complex, q: complex) -> complex:
    """Infinite product prod_{k>=0} (1 - x * q**k), truncated once
    |x * q**k| < TERM_EPS.

    The factor terms shrink geometrically, so the factor budget comes from
    the inputs: |x| * |q|**k falls below TERM_EPS once k reaches
    log(TERM_EPS / |x|) / log|q|, plus a margin for rounding in the running
    power.  A budget above MAX_TERMS**2 factors is refused at once: such a
    |q| lies closer to 1 than theta's own term budget reaches.  The leading
    factors that are provably at least TERM_EPS skip the stop test; only
    the last few, where the product can stop, are checked."""
    rq = abs(q)
    if not rq < 1.0:
        raise DomainError(f"qpochhammer requires |q| < 1, got |q| = {rq}")
    f = complex(x)
    if not _isfinite(f):
        raise DomainError(f"qpochhammer requires a finite x, got {x}")
    eps = TERM_EPS
    r = abs(f)
    if r < eps or rq == 0.0:
        budget, live = 1, 0
    else:
        log_r, log_q = math.log(r), math.log(rq)
        budget = math.ceil((math.log(eps) - log_r) / log_q) + 2
        # The factors k = 0 .. live-1 skip the stop test, because
        # abs(f) >= eps holds at each of them.  With u = 2**-53 and
        # eps' = eps * (1 + 1e-9):
        # - each such k is at most k', the computed
        #   (log eps' - log r) / log rq.  The logs and the division carry a
        #   few ulps of numbers below 750, and abs(f) and abs(q) carry
        #   relative error u, which k < MAX_TERMS**2 = 4e4 multiplies, so
        #   |f_0| |q|**k >= eps' (1 - 1e-11) in exact arithmetic;
        # - each product f_k = fl(f_(k-1) * q) adds relative error below
        #   sqrt(2) * gamma_2 < 3u (Higham, Accuracy and Stability of
        #   Numerical Algorithms, 2nd ed., 3.1-3.3 and 3.6), so
        #   |f_k| >= |f_0| |q|**k (1 - 3ku), and 3ku < 1.4e-11;
        # - abs(f_k) loses one more u.
        # So abs(f_k) >= eps (1 + 1e-9) (1 - 3e-11) > eps.  An r in
        # [eps, eps') has k' <= 0, so at most f_0 is unchecked, and
        # abs(f_0) = r >= eps.  And eps' > eps makes live <= budget - 1, so
        # the checked loop still meets the factor where the product stops.
        live = max(0, math.floor((math.log(eps * (1.0 + 1e-9)) - log_r) / log_q) + 1)
    if budget > MAX_TERMS * MAX_TERMS:
        raise NonconvergenceError(
            f"qpochhammer needs {budget} factors at |q| = {rq}, "
            f"more than {MAX_TERMS * MAX_TERMS}"
        )
    prod = one = 1.0 + 0.0j  # complex - complex: no float-to-complex step per factor
    for _ in range(live):
        prod *= one - f
        f *= q
    for _ in range(budget + 1 - live):
        if abs(f) < eps:
            return prod if _isfinite(prod) else _check_finite(prod, "qpochhammer")
        prod *= one - f
        f *= q
    raise NonconvergenceError(
        f"qpochhammer did not converge within {budget} factors"
    )


def near_power_orbit(
    value: complex,
    u: complex,
    *,
    sign: int = 1,
    parity: int | None = None,
    tol: float = GUARD_TOL,
) -> bool:
    """Whether ``value`` lies within ``tol * max(1, |value|)`` of some point
    of the orbit ``{sign * u**e : e in Z}``, optionally restricted to
    exponents of a fixed parity (0 = even, 1 = odd).

    This is the workhorse behind sampling guards: kappa poles live on the
    orbit ``+u**even`` (that is, q**Z) and theta zeros on ``-u**odd``.  The
    orbit accumulates at 0, so values within the threshold of 0 count as
    near the orbit.

    Exponents run over -399..399, and non-negative ones stop once |u**e|
    falls below half the threshold.  Only exponents with
    ``| |u|**e - |value| | <= thresh`` can match, and they form one
    interval, so just those are tested, from one base-2 window 1e-5 wider
    at each end; an exponent in that margin cannot match.  A matching power has
    |u**e| <= |value| + thresh < 2 |value| + 1, since tol < 1 past the
    first test, so no match lies beyond that bound on the negative side.
    """
    r = abs(u)
    if not 0.0 < r < 1.0:
        _require_nome(u)
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if parity not in (0, 1, None):
        raise DomainError(f"parity must be None, 0 or 1, got {parity}")
    av = abs(value)
    thresh = tol * (av if av > 1.0 else 1.0)
    if av <= thresh:
        return True
    if not (thresh >= 0.0 and av == av):
        return False  # a NaN value, or a negative or NaN tol, matches nothing
    # |u|**e lies in [av - thresh, av + thresh] for e between these bounds (log|u| < 0
    # reverses them); rounding moves them ~1e-13 for the |e| <= 400 tested, far inside
    # the 1e-5 margin.  Most calls have no e in reach and return here.
    log_r = _log2(r)
    lo, hi = _log2(av + thresh) / log_r - 1e-5, _log2(av - thresh) / log_r + 1e-5
    if _floor(hi) < lo:
        return False
    floor = 0.5 * thresh  # half of min(thresh, |value|), as |value| > thresh
    for e in range(max(math.ceil(max(lo, -400.0)), -399), min(_floor(min(hi, 400.0)), 399) + 1):
        if parity is not None and e % 2 != parity:
            continue
        try:
            p = u**e
        except (OverflowError, ZeroDivisionError):
            continue  # a power past the float range cannot come close
        if e > 0 and abs(p) < floor:
            break  # below the floor, and every later |u**e| is smaller
        if abs(value - sign * p) <= thresh:
            return True
    return False


T = TypeVar("T")


def annulus_point(rng: random.Random, log_lo=math.log(0.5), log_hi=math.log(2.0)) -> complex:
    """The draw of every sampled binding and z-point: log-uniform modulus in
    [exp(log_lo), exp(log_hi)], uniform argument (``rng.uniform`` spelled out)."""
    modulus = math.exp(log_lo + (log_hi - log_lo) * rng.random())
    return cmath.rect(modulus, 2.0 * math.pi * rng.random())


def guarded_sample(draw: Callable[[], T], accept: Callable[[T], bool], count: int) -> list[T]:
    """The first ``count`` results of ``draw()`` that ``accept`` admits, in
    draw order.  Guard regions have tiny measure, so a guard still short of
    ``count`` after 1000*count + 1000 draws is refused with
    NonReachableGuardError rather than retried forever."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    cap = 1000 * count + 1000
    out: list[T] = []
    for _ in range(cap):
        x = draw()
        if accept(x):
            out.append(x)
            if len(out) == count:
                return out
    raise NonReachableGuardError(
        f"guard accepted only {len(out)}/{count} points after {cap} draws"
    )
