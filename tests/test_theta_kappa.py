"""Numeric kernel tests: frozen direct-sum oracles, structural properties of
theta/kappa, domain guards, and truncation behavior.

The oracle constants below were produced by independent literal loops
(bilateral sums over |n| <= 60..80 and 80-factor products, no early
termination) and are frozen here so any regression in the summation code is
caught against values it did not produce."""

from __future__ import annotations

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from appell_kit import cli, numeric
from appell_kit.numeric import (
    MAX_TERMS,
    POLE_GUARD,
    TERM_EPS,
    DomainError,
    EvalPoint,
    Nome,
    NonconvergenceError,
    PoleProximityError,
    ResidualReport,
    dtheta_dz,
    kappa,
    kappa_bar,
    kappa_sweep,
    near_power_orbit,
    qpochhammer,
    theta,
    theta2,
    theta_sweep,
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
            ratio = abs(theta(z, u)) / theta(abs(z), abs(u)).real
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


def test_two_torsion_closed_forms():
    """kappa(u, 1) = 0, kappa(-u, -1) = 0 and kappa(u, -u) = theta(1) theta(u) / 2
    at seeded nomes with |u| in [0.05, 0.75], the registry's default range."""
    rng = random.Random(2)
    for _ in range(200):
        u = cmath.rect(rng.uniform(0.05, 0.75), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(kappa(u, 1, u)) <= 1e-12
        assert abs(kappa(-u, -1, u)) <= 1e-12
        lhs, rhs = kappa(u, -u, u), 0.5 * theta(1, u) * theta(u, u)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


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
    "call, message",
    (
        (lambda: vartheta0(1, 1e-100), "v**4 underflows to 0 at v = 1e-100"),
        (lambda: vartheta1(1, 1e-100), "v**4 underflows to 0 at v = 1e-100"),
        # the derived nome is checked before the derived argument, as in theta
        (lambda: vartheta0(1e200, 1e-100), "v**4 underflows to 0 at v = 1e-100"),
        (lambda: vartheta1(1e-200, 1e-100), "v**4 underflows to 0 at v = 1e-100"),
        (lambda: theta2(1, 1e-200), "u**2 underflows to 0 at u = 1e-200"),
        (lambda: theta2(0, 1e-200), "u**2 underflows to 0 at u = 1e-200"),
        (
            lambda: theta2(1, 1e-170 + 1e-170j),
            "u**2 underflows to 0 at u = (1e-170+1e-170j)",
        ),
        # kappa divides by u**2, which used to raise ZeroDivisionError
        (lambda: kappa(0.5, 1, 1e-200), "u**2 underflows to 0 at u = 1e-200"),
        (lambda: kappa_sweep(0.5, [1, 0], 1e-200), "u**2 underflows to 0 at u = 1e-200"),
    ),
)
def test_derived_nome_underflow_names_caller_value(call, message):
    """A valid nome whose power underflows to 0 is refused in terms of the
    nome the caller passed, not as theta's |u| = 0.0 or a division by 0."""
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "argv, message",
    (
        (["vartheta0", "--z", "1", "--v", "1e-100"], "v**4 underflows to 0 at v = (1e-100+0j)"),
        (
            ["kappa", "--a", "0.5", "--z", "1", "--u", "1e-200"],
            "u**2 underflows to 0 at u = (1e-200+0j)",
        ),
    ),
)
def test_cli_derived_nome_underflow_exits_2(capsys, argv, message):
    assert cli.main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: {message}\n"


@pytest.mark.parametrize(
    "a, z, u, message",
    (
        (0.7, 1.3, 1e-320, "-a/u overflows at a = 0.7, u = 1e-320"),
        (1e300, 1.3, 1e-300, "-a/u overflows at a = 1e+300, u = 1e-300"),
        (-1e200 + 1e200j, 1.3, 1e-170j, "-a/u overflows at a = (-1e+200+1e+200j), u = 1e-170j"),
        # the bindings are checked in kappa's order before -a/u is formed
        (0.7, 1.3, 0, "half-nome u must satisfy 0 < |u| < 1, got |u| = 0"),
        (0, 1.3, 0.3, "a must be nonzero"),
        (math.inf, 1.3, 0.3, "a must be finite, got inf"),
        (0.7, 0, 1e-320, "z must be nonzero"),
    ),
)
def test_kappa_bar_names_the_caller_values(a, z, u, message):
    """theta's argument -a/u is derived from a and u; its overflow is
    reported at those values, not as a z the caller did not pass (and u = 0
    is a nome error, not a ZeroDivisionError)."""
    with pytest.raises(DomainError) as info:
        kappa_bar(a, z, u)
    assert str(info.value) == message


def test_cli_kappa_bar_overflow_exits_2(capsys):
    assert cli.main(["eval", "kappa_bar", "--a", "0.7", "--z", "1.3", "--u", "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error: -a/u overflows at a = (0.7+0j), u = (1e-320+0j)\n"


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
    for bad in (0, 1.5, math.nan):  # the nome is checked first, with theta's message
        with pytest.raises(DomainError) as info:
            near_power_orbit(1.0, bad, sign=2)
        assert str(info.value) == f"half-nome u must satisfy 0 < |u| < 1, got |u| = {abs(bad)}"


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


def _near_power_orbit_loop(value, u, *, sign=1, parity=None, tol=1e-3):
    """Reference copy of the exponent walk that near_power_orbit replaced:
    up to 400 non-negative and 399 negative powers of u, each taken as u**e
    as near_power_orbit takes it, so no rounding builds up along the walk."""
    thresh = tol * max(1.0, abs(value))
    if abs(value) <= thresh:
        return True
    for e in range(0, 400):
        p = u**e
        if e > 0 and abs(p) < 0.5 * min(thresh, abs(value)):
            break
        if (parity is None or e % 2 == parity) and abs(value - sign * p) <= thresh:
            return True
    for e in range(1, 400):
        try:
            p = u**-e
        except OverflowError:
            break
        if abs(p) > 2.0 * abs(value) + 1.0:
            break
        if (parity is None or e % 2 == parity) and abs(value - sign * p) <= thresh:
            return True
    return False


def _on_threshold_edge(value, u, sign, tol):
    """Whether some power's distance from value lies within 1e-9 (relative)
    of the threshold, where rounding in u**e may decide the answer."""
    thresh = tol * max(1.0, abs(value))
    for e in range(-399, 400):
        try:
            p = u**e
        except (OverflowError, ZeroDivisionError):
            continue
        if abs(abs(value - sign * p) - thresh) <= 1e-9 * thresh:
            return True
    return False


angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)


def between(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def orbit_guard_inputs(draw):
    """(value, u, sign, parity, tol): values near a power of u, near powers
    past the exponent caps, next to a power just below the floor, near 0,
    or anywhere in the annulus."""
    kind = draw(st.sampled_from(("orbit", "cap", "floor", "zero", "annulus")))
    r = draw(between(0.99 if kind == "cap" else 0.01, 0.9999))
    u = cmath.rect(r, draw(angles))
    sign = draw(st.sampled_from((1, -1)))
    parity = draw(st.sampled_from((None, 0, 1)))
    tol = draw(st.sampled_from((1e-6, 1e-3, 0.1)))
    if kind == "orbit":
        reach = min(450, int(690.0 / -math.log(r)))  # |u**e| within 1e+-300
        e = draw(st.integers(min_value=-reach, max_value=reach))
        delta = cmath.rect(tol * 10 ** draw(between(-1.0, 1.0)), draw(angles))
        value = draw(st.sampled_from((1, -1))) * u**e * (1 + delta)
    elif kind == "cap":
        e = draw(st.sampled_from((1, -1))) * draw(st.sampled_from((398, 399, 400)))
        delta = cmath.rect(tol * 10 ** draw(between(-1.0, 1.0)), draw(angles))
        value = sign * u**e * (1 + delta)
    elif kind == "floor":
        e = max(1, round(math.log(tol * draw(between(0.2, 0.6))) / math.log(r)))
        p = sign * u**e
        value = p / abs(p) * cmath.rect(tol * draw(between(1.0, 1.5)), draw(between(-0.5, 0.5)))
    elif kind == "zero":
        value = cmath.rect(tol * 10 ** draw(between(-2.0, 1.0)), draw(angles))
    else:
        value = cmath.rect(math.exp(draw(between(math.log(0.3), math.log(3.0)))), draw(angles))
    return value, u, sign, parity, tol


EDGE_U = cmath.rect(0.99, 1.0)
HALF_U = cmath.rect(0.5, 0.3)


def _ring_edge(u, e, sign, *, inside, outward, tol=1e-6):
    """A guard input on the ray of sign * u**e whose modulus differs from
    |u**e| by thresh - 1e-12 (inside) or thresh + 1e-12, above |u**e|
    (outward) or below it: where the exponent window's bounds fall."""
    p = sign * u**e
    r = abs(p)
    gap = -1e-12 if inside else 1e-12
    if outward:  # |value| - r = thresh + gap, thresh = tol * max(1, |value|)
        av = r + tol + gap if r + tol < 1 else (r + gap) / (1 - tol)
    else:  # r - |value| = thresh + gap
        av = r - tol - gap if r < 1 else (r - gap) / (1 + tol)
    return p / r * av, u, sign, None, tol


@settings(max_examples=400, deadline=None)
@given(orbit_guard_inputs())
# u**-166 by 166 repeated divisions lands 4e-11*thresh outside, u**-166 inside
@example((-8.188711342496641e49 - 4.520512875075006e49j, 0.2701511529340699 + 0.42073549240394825j, 1, None, 1e-6))
@example((1.5 + 0j, 1e-200 + 0j, 1, None, 1e-3))  # u**-2 overflows
@example((1.5 + 0j, 1e-200, 1, None, 1e-3))
@example((EDGE_U**399, EDGE_U, 1, None, 1e-6))  # the last exponent on each side
@example((-(EDGE_U**-399), EDGE_U, -1, 1, 1e-6))
@example((EDGE_U**400, EDGE_U, 1, 0, 1e-6))  # one past the caps
@example((-(EDGE_U**-400), EDGE_U, -1, None, 1e-6))
@example(_ring_edge(HALF_U, 3, 1, inside=True, outward=True))  # window edges
@example(_ring_edge(HALF_U, 3, 1, inside=False, outward=True))
@example(_ring_edge(HALF_U, 3, 1, inside=True, outward=False))
@example(_ring_edge(HALF_U, 3, 1, inside=False, outward=False))
@example(_ring_edge(EDGE_U, -5, -1, inside=True, outward=True))
@example(_ring_edge(EDGE_U, -5, -1, inside=False, outward=True))
@example(_ring_edge(EDGE_U, -5, -1, inside=True, outward=False))
@example(_ring_edge(EDGE_U, -5, -1, inside=False, outward=False))
def test_near_power_orbit_matches_exponent_walk(case):
    value, u, sign, parity, tol = case
    assume(not _on_threshold_edge(value, u, sign, tol))
    expected = _near_power_orbit_loop(value, u, sign=sign, parity=parity, tol=tol)
    assert near_power_orbit(value, u, sign=sign, parity=parity, tol=tol) == expected


# ---------------------------------------------------------------------------
# sweeps: bit for bit the scalar calls, errors included
# ---------------------------------------------------------------------------


def _outcome(call):
    """repr of call()'s value, so signed zeros count, or the type and
    message of what it raised."""
    try:
        return repr(call())
    except (DomainError, NonconvergenceError) as exc:
        return type(exc), str(exc)


def _near_power_orbit_windowed(value, u, *, sign=1, parity=None, tol=1e-3):
    """Copy of near_power_orbit before its base-2 first test: the exponent
    window from natural logs, with max/min clamps and a range, on every call."""
    r = abs(u)
    if not 0.0 < r < 1.0:
        raise DomainError(f"half-nome u must satisfy 0 < |u| < 1, got |u| = {r}")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if parity not in (None, 0, 1):
        raise DomainError(f"parity must be None, 0 or 1, got {parity}")
    av = abs(value)
    thresh = tol * max(1.0, av)
    if av <= thresh:
        return True
    if not (thresh >= 0.0 and av == av):
        return False
    log_r = math.log(r)
    first = math.ceil(max(-400.0, math.log(av + thresh) / log_r) - 1e-6)
    last = math.floor(min(400.0, math.log(av - thresh) / log_r) + 1e-6)
    floor = 0.5 * thresh
    for e in range(max(first, -399), min(last, 399) + 1):
        if parity is not None and e % 2 != parity:
            continue
        try:
            p = u**e
        except (OverflowError, ZeroDivisionError):
            continue
        if e > 0 and abs(p) < floor:
            break
        if abs(value - sign * p) <= thresh:
            return True
    return False


def _threshold_moduli(r, tol):
    """The moduli m whose distance from r is exactly tol * max(1, m), out
    from r and in towards 0, where the exponent window ends."""
    outward = r + tol if r + tol < 1.0 else r / (1.0 - tol)
    inward = r - tol if r < 1.0 else r / (1.0 + tol)
    return [m for m in (outward, inward) if m > 0.0]


def _orbit_guard_table():
    """(value, u, sign, parity, tol) rows: exact orbit points +-u**e for e in
    -30..30, the window's ends a float apart, special values and tols, and
    bad signs, parities and nomes."""
    rows = []
    for u in (cmath.rect(1e-3, 0.7), cmath.rect(0.999, 2.1), 0.3 + 0.05j, 0.5):
        for e in range(-30, 31):
            p = u**e
            for orbit_sign in (1, -1):
                for sign in (1, -1):
                    rows += [(orbit_sign * p, u, sign, parity, 1e-3) for parity in (None, 0, 1)]
                for tol in (1e-3, 1e-6):
                    for m in _threshold_moduli(abs(p), tol):
                        for value in (math.nextafter(m, 0.0), m, math.nextafter(m, math.inf)):
                            rows.append((orbit_sign * p / abs(p) * value, u, orbit_sign, None, tol))
        for value in (0, 0j, math.nan, complex(math.nan, 0.0), math.inf, complex(0.0, -math.inf),
                      5e-324, 1e-310 + 1e-310j, 1e300, -1e300j, 1.7 + 1.2j):
            for tol in (1e-3, 0.0, -0.0, -1e-3, math.nan, 0.5):
                rows += [(value, u, sign, parity, tol) for sign in (1, -1) for parity in (None, 0, 1)]
        for sign, parity in ((2, None), (0, 0), (1.5, 1), (1, 2), (-1, -1), (1, 0.5), (1.0, 1.0)):
            rows.append((u * u, u, sign, parity, 1e-3))
    for bad_u in (0, 0j, 1.0, -1.0, 1.5j, math.nan, math.inf):
        rows.append((1.0, bad_u, 1, 0, 1e-3))
        rows.append((1.0, bad_u, 2, 5, 1e-3))
    return rows


def test_near_power_orbit_matches_windowed_version_on_table():
    rows = _orbit_guard_table()
    assert len(rows) > 5000
    hits = 0
    for value, u, sign, parity, tol in rows:
        expected = _outcome(
            lambda: _near_power_orbit_windowed(value, u, sign=sign, parity=parity, tol=tol)
        )
        got = _outcome(lambda: near_power_orbit(value, u, sign=sign, parity=parity, tol=tol))
        assert got == expected, (value, u, sign, parity, tol)
        hits += expected == "True"
    assert 1000 < hits < len(rows) - 1000  # both answers, many times over


@settings(max_examples=300, deadline=None)
@given(orbit_guard_inputs())
def test_near_power_orbit_matches_windowed_version(case):
    value, u, sign, parity, tol = case
    expected = _outcome(lambda: _near_power_orbit_windowed(value, u, sign=sign, parity=parity, tol=tol))
    assert _outcome(lambda: near_power_orbit(value, u, sign=sign, parity=parity, tol=tol)) == expected


def _scalar_outcome(scalar, zs):
    return _outcome(lambda: [scalar(z) for z in zs])


def _sweep_pairs(zs, u, a):
    """(sweep call, scalar at one point) for theta and kappa."""
    return (
        (lambda: theta_sweep(zs, u), lambda z: theta(z, u)),
        (lambda: kappa_sweep(a, zs, u), lambda z: kappa(a, z, u)),
    )


sweep_nomes = st.builds(cmath.rect, between(0.01, 0.95), angles)
wide_points = st.builds(
    cmath.rect, between(math.log(1e-3), math.log(1e3)).map(math.exp), angles
)


@settings(max_examples=150, deadline=None)
@given(zs=st.lists(wide_points, max_size=6), u=sweep_nomes, a=wide_points)
@example(zs=[1.5 - 0.5j, 1e-3, 1e3], u=1e-9 + 0j, a=0.4 + 0.2j)  # tiny nome: sums stop at n = 3
@example(zs=[1, -1, 0.5], u=0.3, a=-0.3)  # real nome, integer points
def test_sweeps_match_scalar_calls_bit_for_bit(zs, u, a):
    """Each sweep equals the scalar calls; the wide points read rows that
    the points before them did not, so rows are built mid-sum too."""
    for sweep, scalar in _sweep_pairs(zs, u, a):
        assert _outcome(sweep) == _scalar_outcome(scalar, zs)


def test_sweep_pole_errors_match_scalar():
    """a at 1e-9..1e-7 relative to a pole u**(2k): the sweep raises kappa's
    message exactly when the scalar calls do, including for a pole past the
    rows the nearer points read, and for one that only a later point
    reads."""
    u = 0.55 * cmath.exp(0.4j)
    point_sets = ([1.1 - 0.3j], [1.1 - 0.3j, 1e3], [1e-3, 0.7j], [])
    raised = quiet = 0
    for k in (-12, -3, -1, 0, 1, 2, 5, 12):
        for offset in (1e-9, 3e-9, 1e-8, 3e-8, 1e-7):
            a = u ** (2 * k) * (1 + offset)
            for zs in point_sets:
                expected = _scalar_outcome(lambda z: kappa(a, z, u), zs)
                assert _outcome(lambda: kappa_sweep(a, zs, u)) == expected
                if isinstance(expected, tuple):
                    assert expected[0] is PoleProximityError
                    raised += 1
                else:
                    quiet += 1
    assert raised and quiet


@pytest.mark.parametrize("bad", (0, 0j, math.inf, complex(1.0, -math.inf), complex(math.nan, 1.0)))
def test_sweep_rejects_zero_and_non_finite_points(bad):
    for sweep, scalar in _sweep_pairs([1.2, bad], 0.3, 0.5 + 0.5j):
        with pytest.raises(DomainError) as info:
            sweep()
        assert (type(info.value), str(info.value)) == _scalar_outcome(scalar, [bad])


def test_sweep_edges():
    # an empty sweep checks nothing, as an empty list of scalar calls
    assert theta_sweep([], 0.3) == theta_sweep([], 1.5) == []
    assert kappa_sweep(0.5, [], 0.3) == kappa_sweep(0, [], 1.5) == []
    # a point that needs more than MAX_TERMS rows
    for sweep, scalar in _sweep_pairs([1.0, 5.0], 0.999, 0.5):
        expected = _scalar_outcome(scalar, [1.0, 5.0])
        assert expected[0] is NonconvergenceError
        assert _outcome(sweep) == expected


def _rows_read(monkeypatch, a, z, u):
    """The rows kappa(a, z, u) reads: the fewest MAX_TERMS at which the
    scalar call stops."""
    for terms in range(1, MAX_TERMS + 1):
        with monkeypatch.context() as patch:
            patch.setattr(numeric, "MAX_TERMS", terms)
            try:
                kappa(a, z, u)
            except NonconvergenceError:
                continue
        return terms
    raise AssertionError(f"kappa({a}, {z}, {u}) does not stop")


def _count_rows(monkeypatch):
    """The index of every kappa row a sweep builds, from here on."""
    built = []
    rows = numeric._kappa_rows

    def counted(*args):
        for row in rows(*args):
            built.append(row[0])
            yield row

    monkeypatch.setattr(numeric, "_kappa_rows", counted)
    return built


@pytest.mark.parametrize(
    "zs, u, a",
    [
        ([1.2, 0.8 - 0.3j, 1.5j], 0.3, 0.5 + 0.5j),  # every later point stops before row 8
        ([1.2, 1e3, 0.5], 0.55 * cmath.exp(0.4j), 2.0),  # one point reads past row 8
        ([1e3, 1.1, 0.9j], 0.3, -0.4),  # the first point reads the most rows
    ],
)
def test_sweep_builds_the_rows_its_later_points_read(monkeypatch, zs, u, a):
    """The first point is the scalar call; every other row is built once,
    when a point first reads it, and no row past the last one read."""
    reads = [_rows_read(monkeypatch, a, z, u) for z in zs[1:]]
    built = _count_rows(monkeypatch)
    assert _outcome(lambda: kappa_sweep(a, zs, u)) == _scalar_outcome(lambda z: kappa(a, z, u), zs)
    assert built == list(range(1, max(reads) + 1))


def test_one_point_sweep_is_the_scalar_call(monkeypatch):
    """A one-point sweep builds no rows, and returns or raises what
    kappa(a, z, u) does, bit for bit."""
    built = _count_rows(monkeypatch)
    cases = (
        (1.2, 0.3, 0.5 + 0.5j),
        (1e3, 0.55 * cmath.exp(0.4j), 2.0),
        (1.2, 1.5, 0.5),  # a bad nome
        (0, 0.3, 0.5),  # a zero point
        (1.2, 0.3, math.inf),  # a non-finite parameter
        (1.2, 0.3, 1.0),  # the pole q**0
        (1.2, 0.3, 0.3**4 * (1 + 1e-9)),  # the pole q**2
        (5.0, 0.999, 0.5),  # no convergence within MAX_TERMS
        (1.2, 1e-200, 0.5),  # u**2 underflows
    )
    for z, u, a in cases:
        expected = _scalar_outcome(lambda z: kappa(a, z, u), [z])
        assert _outcome(lambda: kappa_sweep(a, [z], u)) == expected, (z, u, a)
    assert built == []


@pytest.mark.parametrize(
    "zs, u, a",
    [
        ([1.2, 0], 0.3, 0),  # a = 0 is met at the first point, before the bad second one
        ([0, 1.2], 0.3, 0),  # z is checked before a
        ([1.2, 0], 1.5, 0),  # u before everything
        ([1.2, 0], 0.3, 1.0),  # the n = 0 pole at the first point
        ([1e3, 0], 0.3, 0.3**2),  # a pole the first point reads comes before the bad second one
        ([1.2, 0, 1e3], 0.3, 0.3**40),  # a pole past the first point's rows comes after it
        ([1.2, 5.0, 0], 0.999, 0.5),  # nonconvergence at the second point
    ],
)
def test_sweep_first_error_matches_scalar_order(zs, u, a):
    """With several faults, a sweep raises the one the scalar calls meet
    first, with its message."""
    for sweep, scalar in _sweep_pairs(zs, u, a):
        expected = _scalar_outcome(scalar, zs)
        assert isinstance(expected, tuple)
        assert _outcome(sweep) == expected


# ---------------------------------------------------------------------------
# the kernel against its earlier loops: bit for bit, errors included
# ---------------------------------------------------------------------------
#
# Copies of theta, dtheta_dz, kappa and qpochhammer as they were before their
# checks ran inline, their stop limit was cached and qpochhammer's leading
# factors skipped the stop test.  Each kernel call must return the repr of
# the copy's value, or raise its exception type with its message.  The one
# deliberate difference: a nome whose square underflows to 0 made the copy
# of kappa divide by zero, and kappa now refuses it with a DomainError
# (test_derived_nome_underflow_names_caller_value), so the drawn nomes keep
# u**2 a normal float and the bad nomes tested below are 0, 1 or more, or NaN.


def _ref_require_nome(u: complex) -> None:
    r = abs(u)
    if not 0.0 < r < 1.0:
        raise DomainError(f"half-nome u must satisfy 0 < |u| < 1, got |u| = {r}")


def _ref_require_nonzero(value: complex, name: str) -> None:
    if value == 0:
        raise DomainError(f"{name} must be nonzero")
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")


def _ref_check_finite(total: complex, name: str) -> complex:
    if not (cmath.isfinite(total)):
        raise NonconvergenceError(f"{name} overflowed during summation")
    return total


def _ref_theta(z: complex, u: complex) -> complex:
    _ref_require_nome(u)
    _ref_require_nonzero(z, "z")
    eps = TERM_EPS
    total = 1.0 + 0.0j
    scale = 1.0
    u_sq = u * u
    pw = 1.0 + 0.0j  # u**(n*n), advanced by the odd power u**(2n-1)
    odd = u
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
        if n >= 3 and ap < eps * scale and am < eps * scale:
            return _ref_check_finite(total, "theta")
        total += tp + tm
        if ap > scale:
            scale = ap
        if am > scale:
            scale = am
    raise NonconvergenceError(f"theta did not converge within {MAX_TERMS} terms")


def _ref_dtheta_dz(z: complex, u: complex) -> complex:
    _ref_require_nome(u)
    _ref_require_nonzero(z, "z")
    eps = TERM_EPS
    total = 0.0 + 0.0j
    scale = 0.0
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
        if n >= 3 and ap < eps * scale and am < eps * scale:
            return _ref_check_finite(total, "dtheta_dz")
        total += tp - tm
        if ap > scale:
            scale = ap
        if am > scale:
            scale = am
        zp *= z
        zm /= z
    raise NonconvergenceError(f"dtheta_dz did not converge within {MAX_TERMS} terms")


def _ref_kappa(a: complex, z: complex, u: complex) -> complex:
    _ref_require_nome(u)
    _ref_require_nonzero(z, "z")
    _ref_require_nonzero(a, "a")
    eps = TERM_EPS
    guard = POLE_GUARD * max(1.0, abs(a))
    d0 = 1.0 - a
    if abs(d0) < guard:
        raise PoleProximityError(f"parameter a = {a} within {guard} of the pole q**0 = 1")
    total = 1.0 / d0
    scale = max(abs(total), 1e-300)
    u_sq = u * u
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
        if n >= 3 and ap < eps * scale and am < eps * scale:
            return _ref_check_finite(total, "kappa")
        total += tp + tm
        if ap > scale:
            scale = ap
        if am > scale:
            scale = am
    raise NonconvergenceError(f"kappa did not converge within {MAX_TERMS} terms")


def _ref_qpochhammer(x: complex, q: complex) -> complex:
    if not abs(q) < 1.0:
        raise DomainError(f"qpochhammer requires |q| < 1, got |q| = {abs(q)}")
    f = complex(x)
    if not cmath.isfinite(f):
        raise DomainError(f"qpochhammer requires a finite x, got {x}")
    eps = TERM_EPS
    r, rq = abs(f), abs(q)
    if r < eps or rq == 0.0:
        budget = 1
    else:
        budget = math.ceil((math.log(eps) - math.log(r)) / math.log(rq)) + 2
    if budget > MAX_TERMS * MAX_TERMS:
        raise NonconvergenceError(
            f"qpochhammer needs {budget} factors at |q| = {rq}, "
            f"more than {MAX_TERMS * MAX_TERMS}"
        )
    prod = 1.0 + 0.0j
    for _ in range(budget + 1):
        if abs(f) < eps:
            return _ref_check_finite(prod, "qpochhammer")
        prod *= 1.0 - f
        f *= q
    raise NonconvergenceError(
        f"qpochhammer did not converge within {budget} factors"
    )


ref_nomes = st.builds(cmath.rect, between(1e-150, 0.99), angles)


def _kernel_pairs(z, u, a):
    """(kernel call, reference call) for theta, dtheta_dz and kappa."""
    return (
        (lambda: theta(z, u), lambda: _ref_theta(z, u)),
        (lambda: dtheta_dz(z, u), lambda: _ref_dtheta_dz(z, u)),
        (lambda: kappa(a, z, u), lambda: _ref_kappa(a, z, u)),
    )


@settings(max_examples=200, deadline=None)
@given(z=wide_points, u=ref_nomes, a=wide_points)
@example(z=1.0, u=0.3, a=-0.3)  # real inputs
@example(z=1e3, u=0.99, a=0.5)  # no convergence within MAX_TERMS
def test_kernel_matches_reference_loops(z, u, a):
    for call, ref in _kernel_pairs(z, u, a):
        assert _outcome(call) == _outcome(ref)


BAD_BINDINGS = (
    0, 0j, -0.0, math.inf, -math.inf, math.nan, complex(1.0, math.nan), complex(math.inf, 1.0)
)
BAD_NOMES = (0, 0j, 1.0, -1.0, 1j, 1.5, math.nan, math.inf, complex(math.nan, 0.1))


@pytest.mark.parametrize("bad", BAD_BINDINGS)
def test_bad_z_and_a_raise_the_reference_errors(bad):
    """Zero, infinite and NaN z and a, alone and together (z is checked
    first)."""
    u, good = 0.4 + 0.2j, 1.3 - 0.4j
    for z, a in ((bad, good), (good, bad), (bad, bad)):
        for call, ref in _kernel_pairs(z, u, a):
            assert _outcome(call) == _outcome(ref)
    assert _outcome(lambda: kappa(good, bad, u))[0] is DomainError


@pytest.mark.parametrize("u", BAD_NOMES)
def test_bad_nomes_raise_the_reference_errors(u):
    """|u| of 0, of 1 or more, or NaN; the nome is checked before z and a."""
    for z, a in ((1.3 - 0.4j, 0.7), (0, 0)):
        for call, ref in _kernel_pairs(z, u, a):
            expected = _outcome(ref)
            assert expected[0] is DomainError
            assert _outcome(call) == expected


def test_kappa_pole_errors_match_reference():
    """a on a pole u**(2k), or 1e-12..1e-7 (relative) off it."""
    u = 0.55 * cmath.exp(0.4j)
    raised = 0
    for k in range(-6, 7):
        for offset in (0.0, 1e-12, 1e-9, 3e-8, 1e-7):
            a = u ** (2 * k) * (1 + offset)
            for z in (1.1 - 0.3j, 1e3, 1e-3):
                expected = _outcome(lambda: _ref_kappa(a, z, u))
                assert _outcome(lambda: kappa(a, z, u)) == expected
                raised += isinstance(expected, tuple)
    assert raised
    assert _outcome(lambda: kappa(1.0, 1.2, 0.3)) == _outcome(lambda: _ref_kappa(1.0, 1.2, 0.3))


@settings(max_examples=200, deadline=None)
@given(
    x=st.builds(cmath.rect, between(-17.0, 3.0).map(lambda e: 10.0**e), angles),
    q=st.builds(cmath.rect, between(0.0, 0.99), angles),
)
def test_qpochhammer_matches_reference_loop(x, q):
    assert _outcome(lambda: qpochhammer(x, q)) == _outcome(lambda: _ref_qpochhammer(x, q))


def _q_for_budget(x, budget):
    """A real q in (0, 1) at which qpochhammer's factor budget for x is
    ``budget``, for |x| above TERM_EPS."""
    return math.exp((math.log(TERM_EPS) - math.log(abs(x))) / (budget - 2.5))


REFUSAL = MAX_TERMS * MAX_TERMS
#: |x| a hair above, at and below TERM_EPS.
HAIRS = (
    TERM_EPS * (1 + 1e-10),
    TERM_EPS * (1 + 2e-9),
    math.nextafter(TERM_EPS, 1.0),
    TERM_EPS,
    math.nextafter(TERM_EPS, 0.0),
)
QPOCH_EDGES = [
    # |x| within a hair of TERM_EPS, |q| at the refusal edge or far from it
    *((x, _q_for_budget(x, b)) for x in HAIRS[:3] for b in (REFUSAL - 1, REFUSAL, REFUSAL + 1)),
    *((x, q) for x in HAIRS for q in (0.5, 0.99, -0.9j)),
    # |q| at the refusal edge for ordinary x
    *((x, _q_for_budget(x, b)) for x in (2.0, 1e3, 1e-10) for b in (REFUSAL, REFUSAL + 1)),
    (cmath.rect(0.7, 2.0), _q_for_budget(0.7, REFUSAL) * cmath.exp(0.3j)),
    # budgets of 4 or fewer
    (1.0, 1e-10),
    (0.5, 1e-20),
    (-3.0, 1e-8j),
    (1.0, 1e-300),
    (1e-17, 0.5),
    (0.3, 0.0),
    (0.0, 0.5),
    # refused inputs, in check order: q first, then x
    (math.inf, 0.5),
    (math.nan, 0.5),
    (complex(1.0, math.nan), 0.5),
    (0.5, 1.0),
    (0.5, 1.5),
    (0.5, 1j),
    (0.5, math.nan),
    (math.nan, math.nan),
]


@pytest.mark.parametrize("x, q", QPOCH_EDGES)
def test_qpochhammer_edges_match_reference(x, q):
    assert _outcome(lambda: qpochhammer(x, q)) == _outcome(lambda: _ref_qpochhammer(x, q))


def test_qpochhammer_refusal_edge_is_where_the_reference_puts_it():
    x = 2.0
    assert not isinstance(_outcome(lambda: qpochhammer(x, _q_for_budget(x, REFUSAL))), tuple)
    refused = _outcome(lambda: qpochhammer(x, _q_for_budget(x, REFUSAL + 1)))
    assert refused[0] is NonconvergenceError
    assert refused[1].startswith(f"qpochhammer needs {REFUSAL + 1} factors")


# ---------------------------------------------------------------------------
# forward error against 50-digit mpmath sums
# ---------------------------------------------------------------------------

_MP_STOP = mpmath.mpf(10) ** -55


def _mp_sum(head, pairs):
    """head + sum of tp + tm over ``pairs``, stopped once both terms fall
    below 1e-55 of the largest term, with the sum of term magnitudes."""
    total = head
    mags = scale = abs(head)
    for n, (tp, tm) in enumerate(pairs, 1):
        ap, am = abs(tp), abs(tm)
        total += tp + tm
        mags += ap + am
        scale = max(scale, ap, am)
        if n >= 3 and ap < _MP_STOP * scale and am < _MP_STOP * scale:
            return complex(total), float(mags)
        if n > 100_000:
            raise ArithmeticError("reference series did not converge")


def _mp_theta(z, u):
    def pairs():
        pw, odd, u_sq, zp, zm = 1, u, u * u, 1, 1
        while True:
            pw *= odd
            odd *= u_sq
            zp *= z
            zm /= z
            yield pw * zp, pw * zm

    return _mp_sum(mpmath.mpc(1), pairs())


def _mp_kappa(a, z, u):
    def pairs():
        pw, odd, u_sq, up, um, zp, zm = 1, u, u * u, 1, 1, 1, 1
        while True:
            pw *= odd
            odd *= u_sq
            up *= u_sq
            um /= u_sq
            zp *= z
            zm /= z
            yield pw * zp / (up - a), pw * zm / (um - a)

    return _mp_sum(1 / (1 - a), pairs())


def _mp_vartheta1(z, v):
    """sum over m >= 0 of v**((2m+1)**2) * (z**(2m+1) + z**-(2m+1))."""
    def pairs():
        pw, step, v8, zp, zm, z_sq = v, 1, v**8, z, 1 / z, z * z
        while True:
            step *= v8  # v**(8m), the step from (2m-1)**2 to (2m+1)**2
            pw *= step
            zp *= z_sq
            zm /= z_sq
            yield pw * zp, pw * zm

    return _mp_sum(v * (z + 1 / z), pairs())


def _mp_qpochhammer(x, q):
    """The product and the product of (1 + |x q**k|)."""
    prod, scale, f = mpmath.mpc(1), mpmath.mpf(1), x
    while abs(f) >= _MP_STOP:
        prod *= 1 - f
        scale *= 1 + abs(f)
        f *= q
    return complex(prod), float(scale)


FORWARD_CASES = {
    "theta": (lambda z, u, a: theta(z, u), lambda z, u, a: _mp_theta(z, u)),
    "kappa": (lambda z, u, a: kappa(a, z, u), lambda z, u, a: _mp_kappa(a, z, u)),
    "vartheta1": (lambda z, u, a: vartheta1(z, u), lambda z, u, a: _mp_vartheta1(z, u)),
    "qpochhammer": (
        lambda z, u, a: qpochhammer(z, u * u),
        lambda z, u, a: _mp_qpochhammer(z, u * u),
    ),
}


@pytest.mark.parametrize("name", FORWARD_CASES)
@settings(max_examples=12, deadline=None)
@given(z=wide_points, u=st.builds(cmath.rect, between(0.01, 0.95), angles), a=rings)
def test_kernel_forward_error_against_mpmath(name, z, u, a):
    """Each value is within 1e-9 of a 50-digit sum, the error scaled by the
    sum of term magnitudes (for qpochhammer the product of 1 + |term|), as
    the benchmark's oracle scales it."""
    call, reference = FORWARD_CASES[name]
    try:
        value = call(z, u, a)
    except PoleProximityError:
        assume(False)
    with mpmath.workdps(50):
        ref, scale = reference(mpmath.mpc(z), mpmath.mpc(u), mpmath.mpc(a))
    assert abs(value - ref) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# theta at z = +-1: bit for bit the general loop
# ---------------------------------------------------------------------------


def _theta_general_loop(z, u):
    """theta as it summed every z before its z = +-1 path: the same argument
    checks and stop rule, with the terms pw * z**n and pw * z**-n."""
    if not 0.0 < abs(u) < 1.0:
        raise DomainError(f"half-nome u must satisfy 0 < |u| < 1, got |u| = {abs(u)}")
    if z == 0:
        raise DomainError("z must be nonzero")
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    total = 1.0 + 0.0j
    scale = 1.0
    lim = TERM_EPS * scale
    u_sq = u * u
    pw = 1.0 + 0.0j
    odd = u
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
            if not cmath.isfinite(total):
                raise NonconvergenceError("theta overflowed during summation")
            return total
        total += tp + tm
        if ap > scale:
            scale = ap
            lim = TERM_EPS * scale
        if am > scale:
            scale = am
            lim = TERM_EPS * scale
    raise NonconvergenceError(f"theta did not converge within {MAX_TERMS} terms")


def _hex(value):
    return value.real.hex(), value.imag.hex()


UNIT_ARGUMENTS = (1, -1, 1.0, -1.0, 1 + 0j, -1 + 0j, complex(1, -0.0), complex(-1, -0.0))


def _unit_path_nomes():
    rng = random.Random(20)
    nomes = [cmath.rect(rng.uniform(1e-3, 0.99), rng.uniform(-math.pi, math.pi)) for _ in range(1500)]
    for _ in range(100):
        r = rng.uniform(1e-3, 0.99)
        nomes += [r, -r, complex(0.0, r), complex(0.0, -r), complex(-r, 0.0), complex(-0.0, r)]
    return nomes + [complex(0.2, -0.0), complex(-0.2, -0.0), 0.99, -0.99, 1e-3]


def test_theta_at_plus_minus_one_is_the_general_loop_bit_for_bit():
    """Real and imaginary parts agree to the bit (float.hex) for every form
    of z = +-1, on complex, real, imaginary and signed-zero nomes."""
    for u in _unit_path_nomes():
        for z in UNIT_ARGUMENTS:
            assert _hex(theta(z, u)) == _hex(_theta_general_loop(z, u)), (z, u)


def test_theta2_and_vartheta0_reach_the_unit_path_bit_for_bit():
    """theta2(1, u) sums at u*u, and vartheta0(1j, v) at w = 1j*1j, which is
    exactly -1: both equal the general loop at those arguments."""
    assert 1j * 1j == -1
    for u in _unit_path_nomes()[::7]:
        assert _hex(theta2(1, u)) == _hex(_theta_general_loop(1, u * u)), u
        v_sq = u * u
        assert _hex(vartheta0(1j, u)) == _hex(_theta_general_loop(1j * 1j, v_sq * v_sq)), u


@pytest.mark.parametrize("z", (1, -1, -1.0, complex(1, -0.0)))
@pytest.mark.parametrize(
    "u",
    (0, 0.0j, 1, -1.0, 1j, complex(0.6, 0.8), float("nan"), complex(0.3, float("nan")), 0.9999,
     math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0) * complex(0.6, 0.8)),
)
def test_theta_at_plus_minus_one_refuses_as_the_general_loop(z, u):
    """u = 0, |u| = 1 and NaN are refused with the same message, and a nome
    too close to the unit circle, down to |u| one ulp below 1, exhausts
    MAX_TERMS with the same error."""
    expected = _outcome(lambda: _theta_general_loop(z, u))
    assert expected[0] in (DomainError, NonconvergenceError)
    assert _outcome(lambda: theta(z, u)) == expected
