"""Appell's two companions of FOR1 among the 2-torsion values, as exact
u-series.  With A = 2 kappa(-1, u), B = 2 kappa(u, -1) and C = 2 kappa(-u, 1):

    C1: theta(-1) A + u theta(u) B = theta(1)**3
    C2: theta(1) A - u theta(u) C = theta(-1)**3

and u -> -u (tau -> tau + 1) carries C1's sides onto C2's.  With each
relation taken as lhs - rhs, FOR2 = B C2 + C C1 - A FOR1 as series, and the
theta nulls satisfy Jacobi's identity theta(1)**4 = theta(-1)**4 +
u theta(u)**4 in this normalization."""

from __future__ import annotations

import random

import pytest

from appell_kit.qexact import USeries, for1_sides, for2_sides, theta_at, twice_kappa_at

ORDERS = (1, 2, 3, 200, 2000)


def times_u(series: USeries) -> USeries:
    """u * series, truncated to the same order."""
    return USeries(series.trunc, [0, *series.coeffs[:-1]])


def at_minus_u(series: USeries) -> USeries:
    """series(-u): the coefficient of u**k times (-1)**k."""
    return USeries(series.trunc, [-c if k % 2 else c for k, c in enumerate(series.coeffs)])


def companion_sides(trunc: int) -> tuple[tuple[USeries, USeries], tuple[USeries, USeries]]:
    """((lhs, rhs) of C1, (lhs, rhs) of C2) below u**trunc."""
    plus, minus, half = theta_at(1, 0, trunc), theta_at(-1, 0, trunc), theta_at(1, 1, trunc)
    a = twice_kappa_at(-1, 0, 1, 1, trunc)
    b = twice_kappa_at(1, 1, -1, 0, trunc)
    c = twice_kappa_at(-1, 1, 1, 0, trunc)
    c1 = (minus * a + times_u(half * b), plus * plus * plus)
    c2 = (plus * a - times_u(half * c), minus * minus * minus)
    return c1, c2


@pytest.mark.parametrize("trunc", ORDERS)
def test_companions_hold_exactly(trunc):
    (lhs1, rhs1), (lhs2, rhs2) = companion_sides(trunc)
    assert lhs1.agrees_with(rhs1) is None
    assert lhs2.agrees_with(rhs2) is None


@pytest.mark.parametrize("trunc", ORDERS)
def test_u_to_minus_u_carries_c1_onto_c2(trunc):
    (lhs1, rhs1), (lhs2, rhs2) = companion_sides(trunc)
    assert at_minus_u(lhs1) == lhs2
    assert at_minus_u(rhs1) == rhs2


def test_companions_are_not_vacuous():
    """Each side has nonzero coefficients at odd and even exponents, so
    neither check compares two zero series and the sign of u is seen."""
    for side in (s for pair in companion_sides(40) for s in pair):
        assert any(side.coeffs[0::2]) and any(side.coeffs[1::2])


@pytest.mark.parametrize("trunc", ORDERS)
def test_jacobi_identity_holds_exactly(trunc):
    plus, minus, half = theta_at(1, 0, trunc), theta_at(-1, 0, trunc), theta_at(1, 1, trunc)
    assert (plus**4).agrees_with(minus**4 + times_u(half**4)) is None


def relations(a: USeries, b: USeries, c: USeries, trunc: int) -> tuple[USeries, ...]:
    """FOR1, C1, C2 and FOR2, each as lhs - rhs, with A, B and C replaced by
    the given series and the theta nulls of the exact engine."""
    plus, minus, half = theta_at(1, 0, trunc), theta_at(-1, 0, trunc), theta_at(1, 1, trunc)
    for1 = plus * b + minus * c - half * half * half
    c1 = minus * a + times_u(half * b) - plus * plus * plus
    c2 = plus * a - times_u(half * c) - minus * minus * minus
    for2 = a * half * half * half - (b * minus * minus * minus + c * plus * plus * plus)
    return for1, c1, c2, for2


@pytest.mark.parametrize("trunc", ORDERS)
def test_for2_is_b_c2_plus_c_c1_minus_a_for1(trunc):
    """Substituting theta(-1)**3 = theta(1) A - u theta(u) C and theta(1)**3 =
    theta(-1) A + u theta(u) B into FOR2 leaves A times FOR1: FOR2 = B C2 +
    C C1 - A FOR1 holds for any series A, B and C, so it is checked on
    seeded random integer series, where no relation is zero, and on the
    2-torsion kappa values, where FOR1 and FOR2 are the exact engine's."""
    kappas = (
        twice_kappa_at(-1, 0, 1, 1, trunc),
        twice_kappa_at(1, 1, -1, 0, trunc),
        twice_kappa_at(-1, 1, 1, 0, trunc),
    )
    rng = random.Random(trunc)
    generic = [USeries(trunc, [rng.randint(-9, 9) for _ in range(trunc)]) for _ in range(3)]
    for a, b, c in (kappas, generic):
        for1, c1, c2, for2 = relations(a, b, c, trunc)
        assert for2 == b * c2 + c * c1 - a * for1
    assert all(any(r.coeffs) for r in relations(*generic, trunc))
    zero = USeries.zero(trunc)
    assert relations(*kappas, trunc) == (zero, zero, zero, zero)
    lhs1, rhs1 = for1_sides(trunc)
    lhs2, rhs2 = for2_sides(trunc)
    assert (lhs1 - rhs1, lhs2 - rhs2) == (zero, zero)
