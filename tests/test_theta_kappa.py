"""Numeric kernel tests: frozen direct-sum oracles, structural properties of
theta/kappa, domain guards, and truncation behavior.

The oracle constants below were produced by independent literal loops
(bilateral sums over |n| <= 60..80 and 80-factor products, no early
termination) and are frozen here so any regression in the summation code is
caught against values it did not produce."""

from __future__ import annotations

import cmath
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from appell_kit.numeric import (
    DomainError,
    EvalPoint,
    Nome,
    NonconvergenceError,
    PoleProximityError,
    ResidualReport,
    dtheta_dz,
    kappa,
    kappa_bar,
    near_power_orbit,
    qpochhammer,
    theta,
    theta2,
    theta_scale,
    vartheta0,
    vartheta1,
)

# frozen oracles: (computed value, direct-sum value from an independent loop)
ORACLES = [
    (lambda: theta(1, 0.3), 1.6162393746095138 + 0j),
    (lambda: theta(-1, 0.3), 0.41616064260917485 + 0j),
    (lambda: theta2(1, 0.3), 1.1801312207748411 + 0j),
    (lambda: theta(1.1 + 0.3j, 0.41), 1.8487918344331278 + 0.03618916214492142j),
    (
        lambda: kappa(0.7 + 0.4j, 1.3 - 0.2j, 0.35),
        0.7371522921870064 + 2.0824536081123295j,
    ),
    (
        lambda: vartheta1(1.1 + 0.3j, 0.5),
        0.976015693855672 + 0.03574552999395921j,
    ),
    (
        lambda: dtheta_dz(1.2 + 0.5j, 0.3),
        0.1917358551666648 + 0.1410675570209795j,
    ),
    (lambda: qpochhammer(0.2, 0.2), 0.7603327958712324 + 0j),
]


@pytest.mark.parametrize("case", range(len(ORACLES)))
def test_frozen_oracles(case):
    fn, expected = ORACLES[case]
    assert abs(fn() - expected) <= 1e-13 * max(1.0, abs(expected))


def test_theta_zero_locations():
    """theta vanishes on -u * q**Z, down to roundoff relative to the series
    scale (exact zeros are not representable)."""
    for u in (0.3, 0.45 + 0.2j):
        for k in (-1, 0, 1, 2):
            z = -(u ** (2 * k + 1))
            ratio = abs(theta(z, u)) / theta_scale(z, u)
            assert ratio < 1e-12


def test_theta_quasi_periodicity_and_inversion():
    rng_points = [
        (0.8 + 0.5j, 0.3),
        (1.6 - 0.4j, 0.45 + 0.2j),
        (0.5 + 1.1j, 0.6),
        (2.0, 0.11 - 0.6j),
    ]
    for z, u in rng_points:
        q = u * u
        lhs = theta(q * z, u)
        rhs = theta(z, u) / (u * z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        assert abs(theta(1 / z, u) - theta(z, u)) <= 1e-12 * max(
            1.0, abs(theta(z, u))
        )


def test_theta2_matches_squared_nome():
    for z, u in [(1.3 + 0.2j, 0.4), (0.7 - 0.6j, 0.3 + 0.25j)]:
        assert theta2(z, u) == theta(z, u * u)


def test_vartheta_split_reassembles_theta():
    """theta(z**2, v**4)-type pieces: vartheta0 is the even part and
    vartheta1 the odd part of theta(z, v) in z."""
    z, v = 1.2 + 0.4j, 0.5 + 0.1j
    total = vartheta0(z, v) + vartheta1(z, v)
    assert abs(total - theta(z, v)) <= 1e-12 * max(1.0, abs(total))


def test_dtheta_dz_finite_difference():
    z, u = 1.2 + 0.5j, 0.3
    h = 1e-6
    fd = (theta(z + h, u) - theta(z - h, u)) / (2 * h)
    assert abs(dtheta_dz(z, u) - fd) <= 1e-6


def _reference_sum(term, n_range=80):
    """50-digit sum of term(n) over |n| <= n_range, and the sum of |term(n)|."""
    with mpmath.workdps(50):
        terms = [term(n) for n in range(-n_range, n_range + 1)]
        return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(t) for t in terms))


def test_truncation_forward_error():
    """The stopping rule loses nothing measurable: theta and kappa agree with
    a direct 50-digit sum, error scaled by the sum of term magnitudes."""
    z, u, a = 1.4 - 0.3j, 0.55, 0.7 + 0.4j
    mz, mu, ma = mpmath.mpc(z), mpmath.mpf(u), mpmath.mpc(a)
    ref, scale = _reference_sum(lambda n: mu ** (n * n) * mz**n)
    assert abs(theta(z, u) - ref) <= 1e-12 * scale
    ref, scale = _reference_sum(lambda n: mu ** (n * n) * mz**n / (mu ** (2 * n) - ma))
    assert abs(kappa(a, z, u) - ref) <= 1e-12 * scale


def test_qpochhammer_factor_budget_follows_nome():
    """At |q| = 0.9025 the product needs about 360 factors, more than the
    series term budget; the value matches a direct 50-digit product."""
    x, q = 2, 0.9025
    with mpmath.workdps(50):
        ref = complex(mpmath.fprod(1 - x * mpmath.mpf(q) ** k for k in range(1000)))
    assert abs(qpochhammer(x, q) - ref) <= 1e-12 * abs(ref)


def test_kappa_pole_guard_trips():
    u = 0.3
    for n in range(-3, 4):
        a = (u ** (2 * n)) * (1 + 1e-14)
        with pytest.raises(PoleProximityError):
            kappa(a, 1.2 + 0.1j, u)


def test_small_nome_reductions():
    """As u -> 0: theta -> 1 and kappa -> 1/(1 - a) (only the n = 0 terms
    survive)."""
    u = 1e-9
    assert abs(theta(1.3 + 0.4j, u) - 1.0) < 1e-8
    for a in (0.4 + 0.2j, -1.7, 2.5j):
        assert abs(kappa(a, 0.9 - 0.2j, u) - 1.0 / (1.0 - a)) < 1e-8


def test_domain_validation_errors():
    with pytest.raises(DomainError):
        theta(0, 0.3)
    with pytest.raises(DomainError):
        theta(1.0, 1.5)
    with pytest.raises(DomainError):
        theta(1.0, 0)
    with pytest.raises(DomainError):
        kappa(0, 1.0, 0.3)
    with pytest.raises(DomainError):
        kappa(0.5, 0, 0.3)
    with pytest.raises(DomainError):
        qpochhammer(0.5, 1.2)
    with pytest.raises(DomainError):
        qpochhammer(float("inf"), 0.5)
    with pytest.raises(DomainError):
        vartheta1(1e-200, 0.5)  # theta argument z*z*v**4 underflows to 0
    with pytest.raises(DomainError):
        Nome(1.2)
    with pytest.raises(DomainError):
        EvalPoint({"a": 0.0})


@pytest.mark.parametrize(
    "function, z, expr, what",
    (
        (vartheta1, 1e-200, "z*z*v**4", "underflows to 0"),
        (vartheta1, 1e200, "z*z*v**4", "overflows"),
        (vartheta1, 1e-170 + 1e-170j, "z*z*v**4", "underflows to 0"),
        (vartheta0, 1e-200, "z*z", "underflows to 0"),
        (vartheta0, 1e200, "z*z", "overflows"),
    ),
)
def test_vartheta_derived_argument_errors_name_caller_values(function, z, expr, what):
    """theta's argument is derived from z and v; when it underflows or
    overflows, the error names the values the caller passed."""
    with pytest.raises(DomainError) as info:
        function(z, 0.5)
    assert str(info.value) == f"{expr} {what} at z = {z}, v = 0.5"


@pytest.mark.parametrize(
    "bad", (math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0))
)
def test_non_finite_bindings_are_domain_errors(bad):
    """Refused at the kernel boundary, before any term is summed."""
    for call in (
        lambda: theta(bad, 0.3),
        lambda: kappa(bad, 1.1, 0.3),
        lambda: kappa(0.5, bad, 0.3),
        lambda: kappa_bar(0.5, bad, 0.3),
        lambda: vartheta0(bad, 0.5),
        lambda: vartheta1(bad, 0.5),
        lambda: dtheta_dz(bad, 0.3),
    ):
        with pytest.raises(DomainError, match="must be finite"):
            call()


def test_nonconvergence_raises():
    with pytest.raises(NonconvergenceError):
        theta(1.0, 0.9999)
    with pytest.raises(NonconvergenceError):
        qpochhammer(0.5, 0.99999999)  # would need about 3.6e9 factors


def test_residual_report_picks_worst_pair():
    report = ResidualReport.from_pairs(
        "X",
        EvalPoint({"z": 1.0}),
        Nome(0.3),
        [(1.0, 1.0), (2.0, 2.0 + 1e-3j), (5.0, 5.0 + 1e-6j)],
    )
    assert report.lhs == 2.0
    assert report.abs_residual == pytest.approx(1e-3)
    assert report.rel_residual == pytest.approx(1e-3 / 2.0)
    with pytest.raises(DomainError):
        ResidualReport.from_pairs("X", EvalPoint({}), Nome(0.3), [])


def test_near_power_orbit_basics():
    u = 0.3 + 0.05j
    assert near_power_orbit(u**4, u, sign=1, parity=0)
    assert near_power_orbit(-(u**3), u, sign=-1, parity=1)
    assert not near_power_orbit(-(u**3), u, sign=1, parity=1)
    assert not near_power_orbit(u**3, u, sign=1, parity=0)  # odd exponent
    assert near_power_orbit(u ** (-2), u, sign=1, parity=0)
    assert not near_power_orbit(1.7 + 1.2j, u, sign=1, parity=None)
    assert near_power_orbit(1e-9, u, sign=1, parity=0)  # accumulation at 0
    with pytest.raises(DomainError):
        near_power_orbit(1.0, u, sign=2)


# ---------------------------------------------------------------------------
# hypothesis property tests
# ---------------------------------------------------------------------------

nomes = st.builds(
    cmath.rect,
    st.floats(min_value=0.05, max_value=0.7),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
rings = st.builds(
    cmath.rect,
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(z=rings, u=nomes)
def test_theta_inversion_symmetry(z, u):
    a, b = theta(z, u), theta(1 / z, u)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@settings(max_examples=60, deadline=None)
@given(z=rings, u=nomes)
def test_theta_quasi_periodicity_property(z, u):
    lhs = theta(u * u * z, u)
    rhs = theta(z, u) / (u * z)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(a=rings, z=rings, u=nomes)
def test_kappa_three_term_property(a, z, u):
    if near_power_orbit(a, u, sign=1, parity=0, tol=1e-3):
        return
    lhs = kappa(a, u * u * z, u)
    rhs = a * kappa(a, z, u) + theta(z, u)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=40, deadline=None)
@given(z=rings, v=nomes)
def test_vartheta_parity(z, v):
    even = vartheta0(z, v)
    odd = vartheta1(z, v)
    assert abs(vartheta0(-z, v) - even) <= 1e-10 * max(1.0, abs(even))
    assert abs(vartheta1(-z, v) + odd) <= 1e-10 * max(1.0, abs(odd))


@settings(max_examples=40, deadline=None)
@given(a=rings, z=rings, u=nomes)
def test_kappa_bar_is_normalized_kappa(a, z, u):
    if near_power_orbit(a, u, sign=1, parity=0, tol=1e-3):
        return
    lhs = kappa_bar(a, z, u)
    rhs = theta(-a / u, u) * kappa(a, z, u)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
