"""Exact-series tests: ring behavior of USeries under hypothesis, fixed
low-order coefficient literals, coefficient-level proofs of the two
three-term relations, and the triangular-number triple count agreement."""

from __future__ import annotations

import cmath
import math
import random
import struct
from fractions import Fraction
from collections import Counter
from functools import partial
from itertools import compress, product, repeat
from operator import add, mul
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from appell_kit import cli, qexact
from appell_kit.numeric import kappa, theta
from appell_kit.qexact import (
    TruncationMismatchError,
    USeries,
    andrews_series,
    as_q_series,
    check_for1_exact,
    check_for2_exact,
    double_sum_series,
    for1_sides,
    for2_sides,
    theta_at,
    to_csv_rows,
    triangular_counts_bruteforce,
    triangular_gf,
    twice_kappa_at,
)

TRUNC = 12


def geom_inverse(sign: int, step: int, trunc: int) -> USeries:
    """The geometric series 1 / (1 - sign * x**step) = sum_j sign**j x**(j*step),
    one dense series: the reference for the strided row builder."""
    return USeries.from_terms(
        {j * step: sign**j for j in range((trunc - 1) // step + 1)}, trunc
    )


def evaluate(series: USeries, x: complex) -> complex:
    """Horner evaluation of the truncated polynomial at a complex point."""
    acc = 0.0 + 0.0j
    for c in reversed(series.coeffs):
        acc = acc * x + c
    return acc


series_strategy = st.builds(
    lambda ints: USeries(TRUNC, ints),
    st.lists(st.integers(-9, 9), min_size=TRUNC, max_size=TRUNC),
)


@settings(max_examples=80, deadline=None)
@given(a=series_strategy, b=series_strategy, c=series_strategy)
def test_useries_ring_axioms(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a + (-a)).coeffs == USeries.zero(TRUNC).coeffs
    assert (a * USeries.one(TRUNC)).coeffs == a.coeffs


@settings(max_examples=40, deadline=None)
@given(a=series_strategy)
def test_useries_pow_matches_repeated_product(a):
    assert (a**3).coeffs == (a * a * a).coeffs
    assert (a**0).coeffs == USeries.one(TRUNC).coeffs


def test_useries_validation():
    with pytest.raises(ValueError):
        USeries(0, ())
    with pytest.raises(ValueError):
        USeries(3, (1,))
    with pytest.raises(TruncationMismatchError):
        USeries.monomial(5, 5)
    with pytest.raises(ValueError):
        USeries.from_terms({-1: 1}, 5)
    with pytest.raises(TruncationMismatchError):
        USeries.one(5).coefficient(7)
    with pytest.raises(ValueError):
        USeries.one(5) ** -1
    with pytest.raises(TypeError):
        USeries.one(5) + 3
    with pytest.raises(ValueError, match="order must be >= 0, got -1"):
        triangular_counts_bruteforce(-1)


@pytest.mark.parametrize("value", (Fraction(1, 2), 0.5))
def test_constructors_reject_non_integer_coefficients(value):
    """A rational or a float coefficient is refused, never truncated, by
    every public constructor, at or beyond the truncation."""
    with pytest.raises(TypeError):
        USeries(2, (1, value))
    for exponent in (1, 5):
        with pytest.raises(TypeError):
            USeries.from_terms({0: 1, exponent: value}, 3)
    with pytest.raises(TypeError):
        USeries.monomial(1, 3, value)


def test_useries_truncation_alignment():
    a = USeries.from_terms({0: 1, 4: 2}, 8)
    b = USeries.from_terms({1: 1}, 5)
    assert (a + b).trunc == 5
    assert (a * b).trunc == 5
    assert (a * b).coeffs == USeries.from_terms({1: 1}, 5).coeffs
    assert a.agrees_with(USeries.from_terms({0: 1, 4: 2}, 6)) is None
    assert a.agrees_with(USeries.from_terms({0: 1, 4: 3}, 6)) == 4


def test_geom_inverse():
    assert geom_inverse(1, 1, 6).coeffs == (1,) * 6
    assert geom_inverse(-1, 2, 7).coeffs == (1, 0, -1, 0, 1, 0, -1)
    ones = geom_inverse(1, 1, 30)
    one_minus_u = USeries.from_terms({0: 1, 1: -1}, 30)
    assert (ones * one_minus_u).agrees_with(USeries.one(30)) is None


def test_theta_null_literals():
    assert theta_at(1, 0, 10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert theta_at(-1, 0, 10).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    series = theta_at(1, 1, 13)
    assert [k for k, c in enumerate(series.coeffs) if c] == [0, 2, 6, 12]
    assert all(theta_at(1, 1, 13).coefficient(e) == 2 for e in (0, 2, 6, 12))


def test_kappa_special_series_constants():
    """The constant terms of kappa(u, -1), kappa(-u, 1) and 2 kappa(-1, u),
    the first two doubled."""
    assert twice_kappa_at(1, 1, -1, 0, 10).coefficient(0) == 2 * 2
    assert twice_kappa_at(-1, 1, 1, 0, 10).coefficient(0) == 2 * 2
    assert twice_kappa_at(-1, 0, 1, 1, 10).coefficient(0) == 1


@pytest.mark.parametrize(
    "build, args, error, match",
    [
        (theta_at, (0, 0, 10), ValueError, "sign"),
        (theta_at, (1, 2, 10), ValueError, "exponent"),
        (theta_at, (-1.0, 0, 10), TypeError, "integer"),
        (twice_kappa_at, (2, 1, 1, 0, 10), ValueError, "sign"),
        (twice_kappa_at, (-1, 3, 1, 0, 10), ValueError, "exponent"),
        (twice_kappa_at, (-1, 0, -2, 1, 10), ValueError, "sign"),
        (twice_kappa_at, (-1, 0, 1, -1, 10), ValueError, "exponent"),
        (twice_kappa_at, (1, 0, 1, 1, 10), ValueError, r"pole q\*\*0"),
    ],
    ids=["theta-sign", "theta-exp", "theta-float", "a-sign", "a-exp", "z-sign", "z-exp", "a=1"],
)
def test_two_torsion_builders_refuse_other_points(build, args, error, match):
    """A point other than +-1 and +-u, whose rows could start below u**0,
    and the pole a = 1 are refused before any row is built."""
    with pytest.raises(error, match=match):
        build(*args)


def _jac_series(trunc):
    """2 sum over all n of n (-1)**(n-1) u**(n**2 - n), term by term."""
    terms = {}
    r = math.isqrt(trunc) + 1
    for n in range(-r, r + 2):
        if n * n - n < trunc:
            terms[n * n - n] = terms.get(n * n - n, 0) + 2 * n * (1 if n % 2 else -1)
    return USeries.from_terms(terms, trunc)


def _theta_product(*points):
    return lambda trunc: math.prod((theta_at(*p, trunc) for p in points), start=USeries.one(trunc))


TWO_TORSION_TABLE = {
    "2kappa(-1,1)": (partial(twice_kappa_at, -1, 0, 1, 0), _theta_product((1, 0))),
    "2kappa(-1,-1)": (partial(twice_kappa_at, -1, 0, -1, 0), _theta_product((-1, 0))),
    "2kappa(-1,-u)": (partial(twice_kappa_at, -1, 0, -1, 1), _theta_product((1, 0), (-1, 0))),
    "2kappa(u,u)": (partial(twice_kappa_at, 1, 1, 1, 1), _theta_product((1, 1))),
    "2kappa(-u,u)": (partial(twice_kappa_at, -1, 1, 1, 1), _theta_product((1, 1))),
    "2kappa(u,-u)": (partial(twice_kappa_at, 1, 1, -1, 1), _theta_product((1, 0), (1, 1))),
    "2kappa(-u,-u)": (partial(twice_kappa_at, -1, 1, -1, 1), _theta_product((-1, 0), (1, 1))),
    "2kappa(u,1)": (partial(twice_kappa_at, 1, 1, 1, 0), USeries.zero),
    "2kappa(-u,-1)": (partial(twice_kappa_at, -1, 1, -1, 0), USeries.zero),
    "theta(-u)": (partial(theta_at, -1, 1), USeries.zero),
    "JAC": (_jac_series, _theta_product((1, 0), (-1, 0), (1, 1))),
}


@pytest.mark.parametrize("trunc", (1, 2, 3, 80, 800))
@pytest.mark.parametrize("built, closed_form", TWO_TORSION_TABLE.values(), ids=TWO_TORSION_TABLE)
def test_two_torsion_table(built, closed_form, trunc):
    """The nine 2-torsion values of 2 kappa with a theta-null closed form,
    theta(-u) = 0, and JAC: 2 sum n (-1)**(n-1) u**(n**2-n) = theta(1)
    theta(-1) theta(u)."""
    assert built(trunc).agrees_with(closed_form(trunc)) is None


@pytest.mark.parametrize("exponent", (0, 1, 37, 799))
def test_two_torsion_table_reports_injected_perturbation(exponent):
    broken = twice_kappa_at(1, 1, -1, 1, 800) + USeries.monomial(exponent, 800)
    assert broken.agrees_with(theta_at(1, 0, 800) * theta_at(1, 1, 800)) == exponent


def test_for1_for2_exact_pass():
    assert check_for1_exact(80) is None
    assert check_for2_exact(80) is None


def test_exact_checks_catch_perturbations():
    """agrees_with must localize an injected error exactly."""
    lhs, rhs = for1_sides(60)
    broken = rhs + USeries.monomial(37, 60)
    assert lhs.agrees_with(broken) == 37
    lhs2, rhs2 = for2_sides(60)
    broken2 = lhs2 + USeries.monomial(0, 60, -1)
    assert broken2.agrees_with(rhs2) == 0


def test_for_sides_constant_terms():
    lhs1, rhs1 = for1_sides(8)
    assert lhs1.coefficient(0) == 8 and rhs1.coefficient(0) == 8
    lhs2, rhs2 = for2_sides(8)
    assert lhs2.coefficient(0) == 8 and rhs2.coefficient(0) == 8


def test_triangular_triple_agreement_order_40():
    cube = triangular_gf(41) ** 3
    ds = as_q_series(double_sum_series(82))
    an = as_q_series(andrews_series(82))
    assert cube.agrees_with(ds) is None
    assert cube.agrees_with(an) is None
    brute = triangular_counts_bruteforce(40)
    assert tuple(cube.coefficient(m) for m in range(41)) == brute
    assert all(c > 0 for c in brute)
    assert brute[:7] == (1, 3, 3, 4, 6, 3, 6)


def test_as_q_series_rejects_odd_exponents():
    series = as_q_series(theta_at(1, 1, 13))
    assert [k for k, c in enumerate(series.coeffs) if c] == [0, 1, 3, 6]
    with pytest.raises(ValueError):
        as_q_series(theta_at(1, 0, 10))  # has a u**1 term


def test_series_evaluate_matches_numeric():
    """The exact series reproduce the numeric kernel at u = 0.3 and at a
    complex nome, far below the 1e-9 working tolerance."""
    for u in (0.3, 0.25 + 0.1j):
        pairs = [
            (evaluate(theta_at(1, 0, 160), u), theta(1, u)),
            (evaluate(theta_at(-1, 0, 160), u), theta(-1, u)),
            (evaluate(theta_at(1, 1, 160), u), theta(u, u)),
            (evaluate(twice_kappa_at(1, 1, -1, 0, 160), u), 2 * kappa(u, -1, u)),
            (evaluate(twice_kappa_at(-1, 1, 1, 0, 160), u), 2 * kappa(-u, 1, u)),
            (evaluate(twice_kappa_at(-1, 0, 1, 1, 160), u), 2 * kappa(-1, u, u)),
        ]
        for series_value, numeric_value in pairs:
            assert abs(series_value - numeric_value) <= 1e-12 * max(
                1.0, abs(numeric_value)
            )


def _horner(series, u):
    """series at u by 50-digit Horner (mpmath.polyval), and sum |c_k| |u|**k."""
    with mpmath.workdps(50):
        value = mpmath.polyval(series.coeffs[::-1], mpmath.mpc(u))
        scale = mpmath.polyval([abs(c) for c in reversed(series.coeffs)], abs(mpmath.mpc(u)))
    return complex(value), float(scale)


def test_kernel_matches_exact_series_by_horner():
    """numeric.theta and 2 numeric.kappa at the 2-torsion points agree with
    their exact u-series through u**399, summed at 50 digits, within 1e-13
    of sum |c_k| |u|**k at 40 seeded nomes with 0.05 <= |u| <= 0.75, where
    u**400 is below 1e-49; the worst measured is 3.5e-16 of that sum.
    A kappa off by a relative 1e-10, which every report record still
    passes, fails here."""
    pairs = [
        (theta_at(1, 0, 400), lambda u: theta(1, u)),
        (theta_at(-1, 0, 400), lambda u: theta(-1, u)),
        (theta_at(1, 1, 400), lambda u: theta(u, u)),
        (twice_kappa_at(1, 1, -1, 0, 400), lambda u: 2 * kappa(u, -1, u)),
        (twice_kappa_at(-1, 1, 1, 0, 400), lambda u: 2 * kappa(-u, 1, u)),
        (twice_kappa_at(-1, 0, 1, 1, 400), lambda u: 2 * kappa(-1, u, u)),
    ]
    rng = random.Random(0)
    for _ in range(40):
        u = cmath.rect(rng.uniform(0.05, 0.75), rng.uniform(-math.pi, math.pi))
        for series, kernel in pairs:
            value, scale = _horner(series, u)
            assert abs(kernel(u) - value) <= 1e-13 * scale, (u, series.coeffs[:4])


def test_csv_rows():
    rows = to_csv_rows(theta_at(-1, 0, 4))
    assert rows[0] == "exponent,numerator,denominator"
    assert rows[1:] == ["0,1,1", "1,-2,1", "2,0,1", "3,0,1"]
    assert len(rows) == 5
    assert all(len(row.split(",")) == 3 for row in rows)


def test_horner_evaluation():
    s = USeries.from_terms({0: 1, 2: 3, 5: -2}, 6)
    x = 0.7 + 0.2j
    direct = 1 + 3 * x**2 - 2 * x**5
    assert abs(evaluate(s, x) - direct) < 1e-14


# ---------------------------------------------------------------------------
# The integer engine against plain int-list arithmetic.
# ---------------------------------------------------------------------------

int_lists = st.integers(1, TRUNC).flatmap(
    lambda t: st.lists(
        st.one_of(st.integers(-9, 9), st.integers(2**64, 2**72), st.integers(-(2**72), -(2**64))),
        min_size=t,
        max_size=t,
    )
)


def reference_mul(a, b):
    t = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(t)]


def reference_agrees(a, b):
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), None)


@settings(max_examples=150, deadline=None)
@given(a=int_lists, b=int_lists)
def test_integer_engine_matches_int_list_reference(a, b):
    """Small and beyond-64-bit coefficients at mixed truncations give
    exactly the ints a plain coefficient-by-coefficient computation gives."""
    sa, sb = USeries(len(a), a), USeries(len(b), b)
    assert sa.coeffs == tuple(a)
    assert all(type(c) is int for c in sa.coeffs)
    assert [sa.coefficient(k) for k in range(len(a))] == a
    assert list((sa + sb).coeffs) == [x + y for x, y in zip(a, b)]
    assert list((sa - sb).coeffs) == [x - y for x, y in zip(a, b)]
    assert list((sa * sb).coeffs) == reference_mul(a, b)
    assert sa.agrees_with(sb) == reference_agrees(a, b)
    assert sa.agrees_with(USeries(len(a), list(a))) is None


def _row(terms, sign, step, trunc):
    """One row c * x**e / (1 - sign * x**step) per term, as its own series."""
    return USeries.from_terms(terms, trunc) * geom_inverse(sign, step, trunc)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("step", (1, 2, 3, 5, 8, 13, 40))
def test_geom_divide_equals_geom_inverse_product(sign, step):
    """Division by 1 - sign * x**step in the strided row builder equals
    each row's series times the dense geometric series: a series with four
    terms, a late monomial, zero, rows
    at or past the truncation, a row whose step reaches past it, and rows
    whose second slice (for sign -1) starts at or past it."""
    trunc = 40
    cases = [
        ({0: 3, 1: -1, 6: 2, 17: 5}, step),
        ({11: -4}, step),
        ({}, step),
        ({trunc: 1, trunc + step: 9}, step),
        ({3: 7, trunc - 1: -3}, trunc + step),
        ({trunc - 1: 5}, step),
        ({trunc - step: 7}, step),
    ]
    for terms, k in cases:
        rows = [(e, c, sign, k) for e, c in terms.items()]
        assert qexact._geometric_sum(trunc, rows) == _row(terms, sign, k, trunc)


@st.composite
def row_lists(draw):
    """(trunc, rows): rows (e, c, s, k) in any order, with zero, negative and
    beyond-64-bit c; steps of 1 to 3 often enough that a group has more rows
    than its step, and exponents and steps at or past trunc."""
    trunc = draw(st.integers(1, 40))
    row = st.tuples(
        st.integers(0, trunc + 3),
        st.one_of(st.integers(-9, 9), st.integers(-(2**72), 2**72)),
        st.sampled_from((1, -1)),
        st.one_of(st.integers(1, 3), st.integers(1, trunc + 3)),
    )
    return trunc, draw(st.lists(row, max_size=60))


@settings(max_examples=200, deadline=None)
@given(case=row_lists())
@example(case=(30, [(e, c, s, k) for e, c in ((0, 1), (3, -2), (4, 5), (7, 0), (29, 4), (30, 9))
                    for s in (1, -1) for k in (1, 2, 5, 13, 29, 31)][::-1]))
def test_geometric_sum_matches_per_row_reference(case):
    """Any row list sums to the per-row reference.  The explicit example has
    groups with more rows than their step (summed by residue class) and
    with fewer (row by row), for both signs, next to monomials and rows past
    trunc."""
    trunc, rows = case
    total = USeries.zero(trunc)
    for e, c, s, k in rows:
        total = total + _row({e: c}, s, k, trunc)
    assert qexact._geometric_sum(trunc, rows) == total


def _per_term(trunc, rows, start=()):
    """start plus c * s**j at e + j k for each row (e, c, s, k) and each j
    while e + j k < trunc, one coefficient at a time."""
    coeffs = [*start] or [0] * trunc
    for e, c, s, k in rows:
        for j, exponent in enumerate(range(e, trunc, k)):
            coeffs[exponent] += c * s**j
    return USeries(trunc, coeffs)


def _edge_exponents(trunc, s, k):
    """The first and last exponents e < trunc - k at which an s = +1 row of
    step k has SHORT_ROW - 1, SHORT_ROW or SHORT_ROW + 1 terms, or an s = -1
    row has two or three; an s = -1 row of one term starts at e >= trunc - k."""
    counts = (qexact.SHORT_ROW - 1, qexact.SHORT_ROW, qexact.SHORT_ROW + 1) if s == 1 else (2, 3)
    edges = {trunc - 1} if s == -1 else set()  # n terms from trunc - n k to trunc - (n - 1) k - 1
    for n in counts:
        edges.update(e for e in (trunc - n * k, trunc - (n - 1) * k - 1) if 0 <= e < trunc - k)
    return sorted(edges)


@st.composite
def row_groups(draw):
    """(trunc, start, groups): a start list and groups ((s, k), rows (e, c))
    with e < trunc (the double sums hand over rows with e + k < trunc; an
    s = -1 row of one term has e + k >= trunc).  Steps of 1 to 3
    with up to 12 rows give groups with more than k / 2 rows, and an s = +1
    group may have k // 2 or k // 2 + 1 rows, the most that are summed row
    by row and the fewest that are packed (2 * len equal to k or k + 1,
    for even and odd k).  Each row may sit where it has SHORT_ROW - 1,
    SHORT_ROW or SHORT_ROW + 1 terms (s = +1) or one to three (s = -1)."""
    trunc = draw(st.integers(2, 120))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**72), 2**72))
    start = draw(st.lists(coeff, min_size=trunc, max_size=trunc))
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        s = draw(st.sampled_from((1, -1)))
        k = draw(st.one_of(st.integers(1, min(3, trunc - 1)), st.integers(1, trunc - 1)))
        edge = _edge_exponents(trunc, s, k)
        exponent = st.integers(0, trunc - k - 1)
        exponent = st.one_of(exponent, st.sampled_from(edge)) if edge else exponent
        size = st.integers(0, 12)
        size = draw(st.one_of(size, st.sampled_from((k // 2, k // 2 + 1))) if s == 1 else size)
        groups.append(((s, k), draw(st.lists(st.tuples(exponent, coeff), min_size=size, max_size=size))))
    return trunc, start, groups


class _SliceCountingList(list):
    """A list that counts the slice assignments made to it."""

    slices = 0

    def __setitem__(self, key, value):
        self.slices += isinstance(key, slice)
        super().__setitem__(key, value)


def _slice_count(trunc, groups):
    """The slice assignments of _sum_groups' rules: none for an s = +1 group
    with more than k / 2 rows, which is packed, else one per s = +1 row of
    more than SHORT_ROW terms, and one per s = -1 row."""
    count = 0
    for (s, k), group in groups:
        if s == 1 and 2 * len(group) > k:
            continue
        if s == 1:
            count += sum(-(-(trunc - e) // k) > qexact.SHORT_ROW for e, _ in group)
        else:
            count += len(group)
    return count


@settings(max_examples=300, deadline=None)
@given(case=row_groups())
@example(case=(9, [0] * 9, [((1, 3), [(2, 1), (3, 5)]), ((1, 4), [(0, -2), (1, 7)]),
                            ((1, 1), [(0, 1), (4, 2)]), ((-1, 4), [(1, 3), (0, 1)])]))
@example(case=(10, [1] * 10, [((1, 2), [(0, 1), (1, 2), (5, 3)]), ((-1, 1), [(e, 2) for e in range(9)])]))
@example(case=(60, [0] * 60, [((1, 3), [(60 - 3 * n, n) for n in (15, 16, 17)]),
                              ((1, 3), [(62 - 3 * n, -n) for n in (15, 16, 17)]),
                              ((-1, 7), [(59, 1), (53, -2), (52, 3), (46, 4), (45, 5), (39, 6)])]))
@example(case=(17, [0] * 17, [((1, 1), [(0, 1)]), ((-1, 16), [(0, 5), (16, -1)])]))
@example(case=(120, [3] * 120, [((1, 4), [(0, 2), (1, -3)]), ((1, 5), [(2, 7), (30, 1)])]))
@example(case=(120, [3] * 120, [((1, 4), [(0, 2), (1, -3), (5, 4)]), ((1, 5), [(2, 7), (30, 1), (34, -6)])]))
def test_grouped_rows_match_per_term_reference(case):
    """The grouped entry of the double sums, and _geometric_sum on the same
    rows, add each row's terms as the per-term reference does: s = +1 rows
    of SHORT_ROW - 1, SHORT_ROW and SHORT_ROW + 1 terms, s = -1 rows of one
    to three, and packed groups of more than k / 2 rows, next to the
    monomials already in the list.  The slices written are the ones the
    rules name, so a row of SHORT_ROW terms is never a slice, one of
    SHORT_ROW + 1 always is, an s = -1 row is one slice and a packed group
    none.  The third example has those term counts at both ends of each
    range; the last two have s = +1 groups of k // 2 rows, each row a
    slice, and of k // 2 + 1, packed, for an even and an odd k."""
    trunc, start, groups = case
    rows = [(e, c, s, k) for (s, k), group in groups for e, c in group]
    expected = _per_term(trunc, rows, start)
    acc = _SliceCountingList(start)
    assert qexact._sum_groups(acc, groups) == expected
    assert acc.slices == _slice_count(trunc, groups)
    assert qexact._geometric_sum(trunc, rows) + USeries(trunc, start) == expected


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize(
    "bound, code",
    [(2**7 - 1, "b"), (2**7, "h"), (2**15 - 1, "h"), (2**15, "i"),
     (2**31 - 1, "i"), (2**31, "q"), (2**63 - 1, "q"), (2**63, None)],
)
def test_packed_groups_at_slot_boundaries(monkeypatch, bound, code, sign):
    """Packed groups whose sum of |c| is the largest a slot holds, or one
    more, match the per-term reference; each of those sums is a coefficient
    (two packed groups, of steps 1 and 2, reach it at every even exponent
    from x**4), and the total is unpacked once, through the width's struct
    code or, past 8 bytes, by int.from_bytes."""
    codes = []

    def unpack(fmt, data):
        codes.append(fmt[-1])
        return struct.unpack(fmt, data)

    monkeypatch.setattr(qexact, "struct", SimpleNamespace(pack=struct.pack, unpack=unpack))
    a, b = bound // 3, bound // 3
    groups = [((1, 1), [(2, sign * a)]), ((1, 2), [(0, sign * b), (4, sign * (bound - a - b))])]
    rows = [(e, c, s, k) for (s, k), group in groups for e, c in group]
    result = qexact._sum_groups([0] * 12, groups)
    assert result == _per_term(12, rows)
    assert max(map(abs, result.coeffs)) == bound
    assert codes == ([code] if code else [])


def _plain_asymmetry(a, b):
    """The first k where b[k] is not (-1)**k a[k], over the shorter list."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if y != (-1) ** k * x), None)


@pytest.mark.parametrize("trunc", (1, 2, 7, 800))
def test_equality_fast_paths_match_plain_scan(trunc):
    """agrees_with and _first_asymmetry, which compare whole lists before
    they scan, give the plain scan's first mismatch on equal series (their
    ints shared or not), on a difference at the first or last exponent, and
    on unequal truncations."""
    base = twice_kappa_at(1, 1, -1, 0, trunc) * theta_at(1, 1, trunc)
    coeffs = list(base.coeffs)
    cases = [(coeffs, list(coeffs)), (coeffs, [c + 2**70 - 2**70 for c in coeffs])]
    for exponent in {0, trunc - 1}:
        changed = list(coeffs)
        changed[exponent] += 1
        cases += [(coeffs, changed), (changed, coeffs)]
    cases += [(coeffs, coeffs[: trunc // 2] or coeffs), (coeffs + [5], coeffs), (coeffs, coeffs + [-5])]
    for a, b in cases:
        sa, sb = USeries(len(a), a), USeries(len(b), b)
        assert sa.agrees_with(sb) == reference_agrees(a, b)
        flipped = [(-1) ** k * c for k, c in enumerate(b)]
        assert qexact._first_asymmetry(sa, USeries(len(b), flipped)) == _plain_asymmetry(a, flipped)


@pytest.mark.parametrize("order", (*range(13), *range(298, 303)))
def test_double_sums_equal_cube_and_counts_around_andrews_tail(order):
    """Both double-sum forms equal psi(q)**3 and the brute-force counts at
    q-orders where Andrews' q**n tail starts at n = order // 3 + 1, for
    both u-truncations that reach q**order."""
    cube = triangular_gf(order + 1) ** 3
    assert cube.coeffs == triangular_counts_bruteforce(order)
    for series, trunc in product((andrews_series, double_sum_series), (2 * order + 1, 2 * order + 2)):
        assert as_q_series(series(trunc)) == cube


# Reference constructions of the five row sums: each row its own series,
# times the dense geometric series, summed with +.


def _twice_kappa_u_at_minus_one_loop(trunc):
    total = USeries.zero(trunc)
    n = 0
    while n * n + 2 * n < trunc:
        total = total + _row({n * n + 2 * n: 2 * 2 * (-1) ** n}, 1, 2 * n + 1, trunc)
        n += 1
    return total


def _twice_kappa_minus_u_at_one_loop(trunc):
    total = USeries.zero(trunc)
    n = 0
    while n * n + 2 * n < trunc:
        total = total + _row({n * n + 2 * n: 2 * 2}, -1, 2 * n + 1, trunc)
        n += 1
    return total


def _twice_kappa_minus_one_at_u_loop(trunc):
    total = USeries.one(trunc)
    m = 1
    while m * m + m < trunc:
        total = total + _row({m * m + m: 4}, -1, 2 * m, trunc)
        m += 1
    return total


def _double_sum_series_loop(trunc, extra=0):
    total = USeries.zero(trunc)
    order = (trunc - 1) // 2
    window = math.isqrt(order) + 1 + extra
    n = 0
    while n * n // 2 + n <= order + extra:
        terms = {}
        for l in range(-window, window + 1):
            e = (n - l) ** 2 + l * l + n
            for q_exp in (e, e + 2 * l + 1):
                if 0 <= 2 * q_exp < trunc:
                    terms[2 * q_exp] = terms.get(2 * q_exp, 0) + 1
        if terms:
            row = _row(terms, 1, 4 * n + 2, trunc)
            total = total + (-row if n % 2 else row)
        n += 1
    return total


def _andrews_series_loop(trunc, extra=0):
    total = USeries.zero(trunc)
    order = (trunc - 1) // 2
    for n in range(0, order + extra + 1):
        terms = {}
        for j in range(2 * n, -1, -1):
            e = 2 * n * n + 2 * n - j * (j + 1) // 2
            if e > order:
                break
            for q_exp in (e, e + 2 * n + 1):
                if 0 <= 2 * q_exp < trunc:
                    terms[2 * q_exp] = terms.get(2 * q_exp, 0) + 1
        if terms:
            total = total + _row(terms, 1, 4 * n + 2, trunc)
    return total


def _monomials(trunc, exponent, coeff):
    """sum of coeff(n) * x**exponent(n) over n >= 0 while the increasing
    exponent stays below trunc, as one from_terms call."""
    terms = {}
    n = 0
    while exponent(n) < trunc:
        terms[exponent(n)] = coeff(n)
        n += 1
    return USeries.from_terms(terms, trunc)


def _theta_null_plus_terms(trunc):
    return _monomials(trunc, lambda n: n * n, lambda n: 2 if n else 1)


def _theta_null_minus_terms(trunc):
    return _monomials(trunc, lambda n: n * n, lambda n: (-1) ** n * (2 if n else 1))


def _theta_null_half_terms(trunc):
    return _monomials(trunc, lambda n: n * n + n, lambda n: 2)


def _triangular_gf_terms(trunc):
    return _monomials(trunc, lambda n: n * (n + 1) // 2, lambda n: 1)


ROW_SUMS = {
    "theta(1)": (partial(theta_at, 1, 0), _theta_null_plus_terms, {}),
    "theta(-1)": (partial(theta_at, -1, 0), _theta_null_minus_terms, {}),
    "theta(u)": (partial(theta_at, 1, 1), _theta_null_half_terms, {}),
    "triangular_gf": (triangular_gf, _triangular_gf_terms, {}),
    "2kappa(u,-1)": (partial(twice_kappa_at, 1, 1, -1, 0), _twice_kappa_u_at_minus_one_loop, {}),
    "2kappa(-u,1)": (partial(twice_kappa_at, -1, 1, 1, 0), _twice_kappa_minus_u_at_one_loop, {}),
    "2kappa(-1,u)": (partial(twice_kappa_at, -1, 0, 1, 1), _twice_kappa_minus_one_at_u_loop, {}),
    "double_sum_series": (double_sum_series, _double_sum_series_loop, {}),
    "andrews_series": (andrews_series, _andrews_series_loop, {}),
    "double_sum_series-extra": (double_sum_series, _double_sum_series_loop, {"extra": 3}),
    "andrews_series-extra": (andrews_series, _andrews_series_loop, {"extra": 3}),
}


@pytest.mark.parametrize("trunc", (1, 2, 3, 4, 80, 81, 160, 802))
@pytest.mark.parametrize("built, reference, kwargs", ROW_SUMS.values(), ids=ROW_SUMS)
def test_row_sums_equal_per_row_reference(built, reference, kwargs, trunc):
    """Coefficients equal the per-row construction's, also when that one
    runs past the builder's bounds by extra shells."""
    assert built(trunc) == reference(trunc, **kwargs)


FOR_KAPPAS = {
    "FOR2-2kappa(-1,u)": (check_for2_exact, (-1, 0, 1, 1)),
    "FOR2-2kappa(u,-1)": (check_for2_exact, (1, 1, -1, 0)),
    "FOR2-2kappa(-u,1)": (check_for2_exact, (-1, 1, 1, 0)),
    "FOR1-2kappa(u,-1)": (check_for1_exact, (1, 1, -1, 0)),
    "FOR1-2kappa(-u,1)": (check_for1_exact, (-1, 1, 1, 0)),
}


@pytest.mark.parametrize("delta", (1, -1))
@pytest.mark.parametrize("check, point", FOR_KAPPAS.values(), ids=FOR_KAPPAS)
@pytest.mark.parametrize("exponent", (0, 1, 37, 79))
def test_check_for2_reports_injected_perturbation(monkeypatch, check, point, exponent, delta):
    """One added to or taken from one 2 kappa series at u**exponent breaks
    FOR1 or FOR2 at that exponent and no earlier: the theta factors of each
    kappa series have a nonzero constant term."""
    original = qexact.twice_kappa_at

    def perturbed(*args):
        series = original(*args)
        if args[:4] != point:
            return series
        return series + USeries.monomial(exponent, series.trunc, delta)

    monkeypatch.setattr(qexact, "twice_kappa_at", perturbed)
    assert check(80) == exponent


# ---------------------------------------------------------------------------
# The term-wise packed product against shift-and-add and the int-list reference.
# ---------------------------------------------------------------------------


def shift_and_add_mul(x: USeries, y: USeries) -> USeries:
    """x * y by shift-and-add over the nonzero terms of the sparser factor:
    one slice pass per term, with no bound on the coefficient size."""
    t = min(x.trunc, y.trunc)
    a, b = x._coeffs[:t], y._coeffs[:t]
    if a.count(0) < b.count(0):
        a, b = b, a
    acc = [0] * t
    for i in compress(range(t), a):
        acc[i:] = map(add, acc[i:], map(mul, b, repeat(a[i], t - i)))
    return USeries._make(t, acc)


@st.composite
def wide_series(draw):
    """Up to 24 coefficients of up to 200 bits, dense, sparse or all zero."""
    trunc = draw(st.integers(1, 24))
    bits = draw(st.integers(0, 200))
    value = st.integers(-(2**bits), 2**bits)
    kind = draw(st.sampled_from(("dense", "sparse", "zero")))
    if kind == "zero":
        return USeries.zero(trunc)
    element = value if kind == "dense" else st.one_of(st.just(0), st.just(0), value)
    return USeries(trunc, draw(st.lists(element, min_size=trunc, max_size=trunc)))


@settings(max_examples=300, deadline=None)
@given(a=wide_series(), b=wide_series())
def test_product_matches_shift_and_add(a, b):
    result = a * b
    assert result == shift_and_add_mul(a, b)
    assert list(result.coeffs) == reference_mul(list(a.coeffs), list(b.coeffs))


@pytest.mark.parametrize(
    "width, bits, length",
    [
        (1, 3, 1),  # 3 + 3 + 1 + 1 = 8 bits
        # Next, a slot needs 2 * bits + 2 + 1 = 8 * w' + 1 bits, one more than
        # the next narrower width w' holds, and 3 * (2**bits - 1)**2 overflows w'.
        (2, 3, 3),
        (4, 7, 3),
        (8, 15, 3),
        (9, 31, 3),
        (51, 200, 3),  # 403 bits
    ],
)
def test_product_slot_widths(monkeypatch, width, bits, length):
    """Each slot width packs through its own path, one packed operand per
    product, and the coefficients at the top of the slot's range, of either
    sign, come back exactly."""
    magnitude = 2**bits - 1
    codes = []

    def pack(fmt, *values):
        codes.append(fmt[-1])
        return struct.pack(fmt, *values)

    monkeypatch.setattr(qexact, "struct", SimpleNamespace(pack=pack, unpack=struct.unpack))
    a = USeries(length + 2, [magnitude] * length + [0, 0])
    for b in (a, -a):
        result = a * b
        assert result == shift_and_add_mul(a, b)
        sign = 1 if b is a else -1
        assert result.coefficient(length - 1) == sign * length * magnitude**2
    expected = {1: "b", 2: "h", 4: "i", 8: "q"}.get(width)
    assert codes == ([expected] * 2 if expected else [])


def _scaled(series, factor):
    return USeries(series.trunc, [factor * c for c in series.coeffs])


@pytest.mark.parametrize("trunc", (800, 2000))
def test_product_fixed_cases(trunc):
    """Products at benchmark size equal shift-and-add: a sparse theta null
    times dense kappa series on either side, with narrow and wide slots, a
    sparse operand whose terms reach the top slot, and all-zero operands.
    The product reads its operands in place and leaves them as they were,
    also when one object stands on both sides."""
    sparse = theta_at(-1, 0, trunc)
    late = USeries.from_terms({0: 3, trunc // 2: -1, trunc - 1: 5}, trunc)
    zero = USeries.zero(trunc)
    dense = twice_kappa_at(-1, 0, 1, 1, trunc)
    wide = _scaled(twice_kappa_at(1, 1, -1, 0, trunc) * theta_at(1, 1, trunc), 2**70 + 1)
    for sparse_operand in (sparse, _scaled(sparse, -(2**90)), late, zero):
        for dense_operand in (dense, wide, zero):
            for x, y in ((sparse_operand, dense_operand), (dense_operand, sparse_operand)):
                before = x.coeffs, y.coeffs
                assert x * y == shift_and_add_mul(x, y)
                assert (x.coeffs, y.coeffs) == before
    for x in (sparse, late, dense, wide, zero):
        before = x.coeffs
        assert x * x == shift_and_add_mul(x, x)
        assert x.coeffs == before
    assert (zero * dense) == USeries.zero(trunc)


def _sides_by_shift_and_add(monkeypatch, build, trunc):
    with monkeypatch.context() as patched:
        patched.setattr(USeries, "__mul__", shift_and_add_mul)
        return build(trunc)


SIDES = {
    "for1": for1_sides,
    "for2": for2_sides,
    "t3": lambda trunc: (triangular_gf(trunc) ** 3,),
}


@pytest.mark.parametrize("name", SIDES)
def test_sides_match_shift_and_add(monkeypatch, name):
    """FOR1's and FOR2's sides and the triangular cube equal the
    shift-and-add products at orders 1 to 60 and at 2000."""
    build = SIDES[name]
    for trunc in (*range(1, 61), 2000):
        assert build(trunc) == _sides_by_shift_and_add(monkeypatch, build, trunc), trunc


def test_pow_skips_the_product_with_one(monkeypatch):
    calls = []
    original = USeries.__mul__

    def counted(x, y):
        calls.append(1)
        return original(x, y)

    monkeypatch.setattr(USeries, "__mul__", counted)
    x = theta_at(1, 1, 20)
    for exponent, products in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        power = x**exponent
        assert len(calls) == products
        calls.clear()
        assert power == _sides_by_shift_and_add(monkeypatch, lambda t: x**exponent, 20)
    assert x**0 == USeries.one(20)


def test_exact_records_build_each_shared_series_once(monkeypatch):
    """One verify exact call builds each theta and 2 kappa series that FOR1
    and FOR2 use once, the five they share included, and a second call
    builds them afresh."""
    calls = Counter()
    for name in ("theta_at", "twice_kappa_at"):
        original = getattr(qexact, name)
        monkeypatch.setattr(
            qexact, name, lambda *args, f=original, n=name: calls.update([(n, *args)]) or f(*args)
        )
    expected = Counter([("theta_at", 1, 0, 80), ("theta_at", -1, 0, 80), ("theta_at", 1, 1, 80),
                        ("twice_kappa_at", 1, 1, -1, 0, 80), ("twice_kappa_at", -1, 1, 1, 0, 80),
                        ("twice_kappa_at", -1, 0, 1, 1, 80)])
    for _ in range(2):
        calls.clear()
        outcomes = qexact.suite_outcomes(80, ("FOR1_EXACT", "FOR2_EXACT"))
        assert all(cli._record(o, 1e-9)["passed"] for o in outcomes)
        assert calls == expected


def test_exact_records_take_13_products(monkeypatch):
    """verify exact at order 800 forms 13 series products: 4 for FOR1 (the
    even and odd halves of theta(1) 2kappa(u,-1), and theta(u)**3, all in
    q), 7 for FOR2 (2kappa(-1,u) theta(u)**3 in q; R = 2kappa(u,-1)
    theta(-1)**2 in u; R theta(-1)'s two halves in q) and 2 for the cubed
    triangular-number generating function."""
    calls = []
    original = USeries.__mul__
    monkeypatch.setattr(USeries, "__mul__", lambda x, y: calls.append(1) or original(x, y))
    assert all(cli._record(o, 1e-9)["passed"] for o in qexact.suite_outcomes(800))
    assert len(calls) == 13


@pytest.mark.parametrize("trunc", range(1, 13))
def test_half_length_checks_match_the_u_series_sides(monkeypatch, trunc):
    """With any one coefficient of any of the six series FOR1 and FOR2 read
    changed, in either direction, each check returns the first exponent where
    its u-series sides differ: the symmetry and parity checks and the
    relations in q see what the full u-series relations see."""
    points = [("theta_at", (1, 0)), ("theta_at", (-1, 0)), ("theta_at", (1, 1)),
              ("twice_kappa_at", (1, 1, -1, 0)), ("twice_kappa_at", (-1, 1, 1, 0)),
              ("twice_kappa_at", (-1, 0, 1, 1))]
    originals = {name: getattr(qexact, name) for name in ("theta_at", "twice_kappa_at")}
    for (name, point), m, delta in product(points, range(trunc), (1, -2)):
        def perturbed(*args, original=originals[name]):
            series = original(*args)
            return series + USeries.monomial(m, trunc, delta) if args[:-1] == point else series

        monkeypatch.setattr(qexact, name, perturbed)
        for check, sides in ((check_for1_exact, for1_sides), (check_for2_exact, for2_sides)):
            lhs, rhs = sides(trunc)
            assert check(trunc) == lhs.agrees_with(rhs), (name, point, m, delta)
        monkeypatch.setattr(qexact, name, originals[name])


@pytest.mark.parametrize("order", (*range(13), 100, 400, 405, 406, 407))
def test_triangular_counts_equal_plain_enumeration(order):
    tri = [n * (n + 1) // 2 for n in range(order + 1) if n * (n + 1) // 2 <= order]
    counts = [0] * (order + 1)
    for triple in product(tri, repeat=3):
        if sum(triple) <= order:
            counts[sum(triple)] += 1
    assert triangular_counts_bruteforce(order) == tuple(counts)
