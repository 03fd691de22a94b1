"""50-digit reference values for the kernel workload's forward-error check.

Each reference sums the defining series directly in mpmath (or multiplies
the defining product) and returns the value together with the scale the
forward error is divided by: the sum of term magnitudes, or for the
product the product of (1 + |factor term|).  The kernel's own truncation
rule is deliberately not reused, so an error shared by the kernel and an
identity's two sides still shows here.
"""

from __future__ import annotations

import mpmath

DIGITS = 50
_STOP = mpmath.mpf(10) ** -(DIGITS + 5)
_MAX_TERMS = 100_000


def _bilateral(term) -> tuple[complex, float]:
    """Sum term(n) over n in Z, outward from 0, until both tails are
    negligible against the largest term seen."""
    total = term(0)
    mags = abs(total)
    scale = mags
    for n in range(1, _MAX_TERMS):
        tp, tm = term(n), term(-n)
        ap, am = abs(tp), abs(tm)
        total += tp + tm
        mags += ap + am
        scale = max(scale, ap, am)
        if n >= 3 and ap < _STOP * scale and am < _STOP * scale:
            return complex(total), float(mags)
    raise ArithmeticError("reference series did not converge")


def theta(z: complex, u: complex) -> tuple[complex, float]:
    with mpmath.workdps(DIGITS):
        z, u = mpmath.mpc(z), mpmath.mpc(u)
        return _bilateral(lambda n: u ** (n * n) * z**n)


def kappa(a: complex, z: complex, u: complex) -> tuple[complex, float]:
    with mpmath.workdps(DIGITS):
        a, z, u = mpmath.mpc(a), mpmath.mpc(z), mpmath.mpc(u)
        return _bilateral(lambda n: u ** (n * n) * z**n / (u ** (2 * n) - a))


def vartheta1(z: complex, v: complex) -> tuple[complex, float]:
    """sum over m >= 0 of v**((2m+1)**2) * (z**(2m+1) + z**-(2m+1)); the
    n < 0 half of the bilateral helper is skipped by returning 0."""
    with mpmath.workdps(DIGITS):
        z, v = mpmath.mpc(z), mpmath.mpc(v)

        def term(m: int):
            if m < 0:
                return mpmath.mpc(0)
            k = 2 * m + 1
            return v ** (k * k) * (z**k + z**-k)

        return _bilateral(term)


def qpochhammer(x: complex, q: complex) -> tuple[complex, float]:
    with mpmath.workdps(DIGITS):
        x, q = mpmath.mpc(x), mpmath.mpc(q)
        prod = mpmath.mpc(1)
        scale = mpmath.mpf(1)
        f = x
        for _ in range(_MAX_TERMS):
            if abs(f) < _STOP:
                return complex(prod), float(scale)
            prod *= 1 - f
            scale *= 1 + abs(f)
            f *= q
        raise ArithmeticError("reference product did not converge")
