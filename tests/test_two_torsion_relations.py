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
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul

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


P = 2**61 - 1
T = 200


def nullity_mod_p(vectors: list[list[int]]) -> int:
    """len(vectors) minus their rank over the integers mod P, by elimination:
    each vector is reduced by the echelon rows kept so far, in the order they
    were kept, and a remainder that is not zero is kept, scaled to a leading 1."""
    echelon: list[tuple[int, list[int]]] = []
    for vector in vectors:
        v = [c % P for c in vector]
        for pivot, row in echelon:
            factor = v[pivot]
            if factor:
                v = [(x - factor * y) % P for x, y in zip(v, row)]
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is not None:
            inverse = pow(v[pivot], -1, P)
            echelon.append((pivot, [x * inverse % P for x in v]))
    return len(vectors) - len(echelon)


def candidates(weight: int, shifts: int, with_kappas: bool = True) -> list[list[int]]:
    """The coefficients below u**T of u**s times each monomial of the given
    weight, s < shifts: theta null monomials in theta(1), theta(-1) and theta(u)
    (weight 1 each), alone and, with_kappas, times one of A, B and C (weight 2)."""
    thetas = (theta_at(1, 0, T), theta_at(-1, 0, T), theta_at(1, 1, T))
    kappas = (twice_kappa_at(-1, 0, 1, 1, T), twice_kappa_at(1, 1, -1, 0, T), twice_kappa_at(-1, 1, 1, 0, T))

    def monomials(degree: int) -> list[USeries]:
        return [reduce(mul, factors) for factors in combinations_with_replacement(thetas, degree)]

    series = monomials(weight)
    if with_kappas:
        series += [k * m for k in kappas for m in monomials(weight - 2)]
    shifted = []
    for s in series:
        for _ in range(shifts):
            shifted.append(s.coeffs)
            s = times_u(s)
    return shifted


@pytest.mark.parametrize(
    "weight, shifts, with_kappas, count, nullity",
    (
        (3, 1, True, 19, 1),  # FOR1
        (5, 1, True, 51, 7),  # FOR2, and FOR1 times each theta**2 monomial
        (3, 2, True, 38, 4),  # FOR1, u FOR1, C1 and C2
        (4, 2, False, 30, 1),  # Jacobi's identity
    ),
)
def test_relation_space_nullities(weight, shifts, with_kappas, count, nullity):
    """The relations among the candidates below u**T, mod P, are exactly as
    many as those exhibited.  Rank mod P is at most the rank over Q, and a
    relation among full series holds at every truncation, so each nullity is
    an upper bound on the dimension of the true relation space."""
    vectors = candidates(weight, shifts, with_kappas)
    assert len(vectors) == count
    assert nullity_mod_p(vectors) == nullity
