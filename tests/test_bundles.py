"""Bundle-lab tests: section equations, the two gauge conjugations with
constant determinants, the independent closed forms of those constants, the
Bezout pair for the squared-nome theta generators, and the mu-expansion in
the three-element section basis."""

from __future__ import annotations

import cmath
import math
import random
from unittest import mock

import pytest

from appell_kit.bundles import (
    FactorOfAutomorphy,
    SectionCandidate,
    basis_sections,
    bezout_pair,
    bezout_residual,
    build_B,
    build_C,
    c_a_kappa,
    c_a_theta,
    c_constant_kappa,
    c_constant_theta,
    check_section,
    determinant_spread,
    gauge_residual,
    kappa_theta_section,
    lambda_constant,
    make_Fa,
    make_Fpa,
    make_L,
    make_push,
    mu_expansion_residual,
    mu_lambda,
    mu_nu,
    mu_sample_ok,
    mu_thetas,
    push_section,
    sample_z_points,
    tensor,
    theta_section,
)
from appell_kit import identities
from appell_kit.bundles import BUNDLE_NOMES
from appell_kit.numeric import (
    GUARD_TOL,
    DomainError,
    EvalPoint,
    Nome,
    ResidualReport,
    annulus_point,
    guarded_sample,
    kappa,
    theta,
    theta2,
)

NOMES = (0.05, 0.2, 0.4 + 0.1j)
A_VALUES = (1.3 - 0.7j, 0.6 + 0.9j)


def circle_points(radius: float, count: int = 12) -> list[complex]:
    return [cmath.rect(radius, 2 * math.pi * (k + 0.35) / count) for k in range(count)]


@pytest.mark.parametrize("u", NOMES)
def test_sections_satisfy_factor_equations(u):
    zs = sample_z_points(u, 16, seed=1)
    assert check_section(make_L(u), theta_section(u), zs) < 1e-10
    assert check_section(make_push(u), push_section(u), zs) < 1e-10
    for a in A_VALUES:
        assert check_section(make_Fa(a, u), kappa_theta_section(a, u), zs) < 1e-10
        factor = tensor(make_Fa(a, u), make_L(u))
        for section in basis_sections(a, u):
            assert check_section(factor, section, zs) < 1e-10


def test_zero_section_and_rank_mismatch():
    u = 0.2
    zero = SectionCandidate(1, "zero", lambda z: (0.0j,))
    assert check_section(make_L(u), zero, [1.1, 0.8 + 0.3j]) == 0.0
    with pytest.raises(DomainError):
        check_section(make_L(u), push_section(u), [1.1])


@pytest.mark.parametrize("u", NOMES)
@pytest.mark.parametrize("a", A_VALUES)
def test_gauge_B_conjugates_factors(u, a):
    zs = sample_z_points(u, 20, seed=2)
    gauge = build_B(a, u)
    assert gauge.source.label.startswith("F'")
    assert gauge.target.label.startswith("F[")
    assert gauge_residual(gauge, zs) < 1e-9
    assert determinant_spread(gauge, zs) < 1e-9


@pytest.mark.parametrize("u", NOMES)
def test_gauge_C_conjugates_factors(u):
    zs = sample_z_points(u, 20, seed=4)
    gauge = build_C(u)
    assert gauge_residual(gauge, zs) < 1e-9
    assert determinant_spread(gauge, zs) < 1e-9


def test_build_B_rejects_pole_parameter():
    with pytest.raises(DomainError):
        build_B(1.0, 0.3)
    with pytest.raises(DomainError):
        build_B(0.3**2, 0.3)


@pytest.mark.parametrize("u", NOMES)
def test_determinant_constants_cross_check(u):
    """The theta-null and kappa special-value closed forms of the gauge
    determinants agree."""
    for a in A_VALUES:
        ct, ck = c_a_theta(a, u), c_a_kappa(a, u)
        assert abs(ct - ck) <= 1e-9 * max(1.0, abs(ct))
    ct, ck = c_constant_theta(u), c_constant_kappa(u)
    assert abs(ct - ck) <= 1e-9 * max(1.0, abs(ct))


def test_gauge_constants_match_determinants():
    u, a = 0.2, 1.3 - 0.7j
    assert build_B(a, u).det_expected == -c_a_theta(a, u)
    assert build_C(u).det_expected == -c_constant_theta(u)


@pytest.mark.parametrize("u", (0.05, 0.2, 0.4 + 0.1j))
def test_bezout_identity_on_circles(u):
    phi1, phi2 = bezout_pair(u)
    from appell_kit.numeric import theta2

    q = u * u
    for radius in (0.3, 1.0, 3.0):
        for w in circle_points(radius):
            value = phi1(w) * theta2(w, u) - phi2(w) * theta2(q * w, u)
            assert abs(value - 1.0) < 1e-9
    assert bezout_residual(u, [2.0]) < 1e-9


@pytest.mark.parametrize("u", BUNDLE_NOMES)
def test_bezout_residual_is_bezout_pair_expression(u):
    """The residual at each point, from sweeps, is bit-identical to the
    expression built from bezout_pair, and over many points it is their
    worst; over no points it is 0."""
    phi1, phi2 = bezout_pair(u)
    q = u * u
    ws = [*sample_z_points(u, 12, seed=3, radius_range=(0.3, 3.0)), 2.0, -0.7 + 0.2j]
    expected = [abs(phi1(w) * theta2(w, u) - phi2(w) * theta2(q * w, u) - 1.0) for w in ws]
    for w, value in zip(ws, expected):
        assert bezout_residual(u, [w]) == value
    assert bezout_residual(u, ws) == max(expected)
    assert bezout_residual(u, []) == 0.0


@pytest.mark.parametrize("u", BUNDLE_NOMES)
def test_bezout_residual_follows_a_patched_theta(monkeypatch, u):
    """The Bezout constants are computed from the kernel bound at each call,
    not kept from the first call at that nome: a patched bundles.theta moves
    the residual, and removing the patch moves it back bit for bit."""
    from appell_kit import bundles

    w = 1.3 + 0.2j
    before = bezout_residual(u, [w])

    def by_hand(th):
        q = u * u
        lam = theta2(1, u) * theta2(q, u) / th(u, u)
        half = 0.5 * th(1, u) * th(-1, u)
        c = lam * th(1, u) * th(-1, u)
        k, t, tq = kappa(-1, u * w, u), theta2(w, u), theta2(q * w, u)
        phi1 = lam * (half + k) / (c * t)
        phi2 = -lam * (half - k) / (c * tq)
        return abs(phi1 * t - phi2 * tq - 1.0)

    def shifted(z, v):
        return theta(z, v) + 1e-10

    assert before == by_hand(theta)
    monkeypatch.setattr(bundles, "theta", shifted)
    patched = bezout_residual(u, [w])
    assert patched == by_hand(shifted)
    assert patched != before
    monkeypatch.undo()
    assert bezout_residual(u, [w]) == before


def test_bezout_pair_stays_bounded():
    """phi1/phi2 are ratios with theta2 denominators but must remain O(1) on
    circles away from the zero orbit: the numerators share those zeros."""
    phi1, phi2 = bezout_pair(0.2)
    values = [
        max(abs(phi1(w)), abs(phi2(w)))
        for radius in (0.3, 1.0, 3.0)
        for w in circle_points(radius)
    ]
    assert max(values) < 100.0


def test_tensor_is_entrywise_scalar_multiplication():
    u, a, z = 0.3, 0.8 + 0.4j, 1.1 - 0.2j
    factor = tensor(make_Fa(a, u), make_L(u))
    plain = make_Fa(a, u).evaluator(z)
    scalar = make_L(u).evaluator(z)[0][0]
    assert factor.evaluator(z) == tuple(
        tuple(scalar * entry for entry in row) for row in plain
    )
    assert factor.rank == 2
    with pytest.raises(DomainError):
        tensor(make_L(u), make_Fa(a, u))
    with pytest.raises(DomainError):
        tensor(make_Fa(a, u), make_L(0.4))


@pytest.mark.parametrize("u", (0.2, 0.4 + 0.1j))
def test_mu_expansion(u):
    zs = sample_z_points(u, 10, seed=5)
    for a, b in ((1.3 - 0.7j, 0.8 + 0.5j), (0.6 + 0.9j, 1.4 - 0.2j)):
        assert mu_sample_ok(a, b, u)
        report = mu_expansion_residual(a, b, u, zs)
        assert report.rel_residual < 1e-9
        assert report.identity_id == "MU_EXPANSION"


def _mu_expansion_reference(a, b, u, zs):
    """MU_EXPANSION evaluated through the basis_sections evaluators, with
    every theta computed at each point."""
    lam_p = mu_lambda(b, u)
    lam_m = mu_lambda(-b, u)
    nu_diff = mu_nu(a, b, u) - mu_nu(a, -b, u)
    v0, v1, vm1 = basis_sections(a * b, u)
    pairs = []
    for z in zs:
        w = (
            theta(z / b, u) * kappa(a, b * z, u) / b,
            theta(z / b, u) * theta(b * z, u),
        )
        x0, x1, xm1 = v0.evaluator(z), v1.evaluator(z), vm1.evaluator(z)
        rhs = tuple(lam_p * x1[i] - lam_m * xm1[i] + nu_diff * x0[i] for i in range(2))
        pairs.extend(zip(w, rhs))
    return ResidualReport.from_pairs("MU_EXPANSION", EvalPoint({"a": a, "b": b}), Nome(u), pairs)


@pytest.mark.parametrize("u", BUNDLE_NOMES)
def test_mu_expansion_precomputed_thetas_are_bit_identical(u):
    zs = sample_z_points(u, 20, seed=7)
    thetas = mu_thetas(u, zs)
    for a, b in ((1.3 - 0.7j, 0.8 + 0.5j), (0.6 + 0.9j, 1.4 - 0.2j), (-0.9 + 0.6j, -1.7 - 0.3j)):
        assert mu_sample_ok(a, b, u)
        report = mu_expansion_residual(a, b, u, zs)
        assert mu_expansion_residual(a, b, u, zs, thetas) == report
        assert report == _mu_expansion_reference(a, b, u, zs)


def _mu_expansion_pairs_per_point(a, b, u, zs):
    """The per-point MU_EXPANSION loop that the sweeps replaced: six scalar
    kernel calls at each z, besides theta(z) and theta(-z)."""
    lam_p = mu_lambda(b, u)
    lam_m = mu_lambda(-b, u)
    nu_diff = mu_nu(a, b, u) - mu_nu(a, -b, u)
    ab = a * b
    pairs = []
    for z in zs:
        th, th_m = theta(z, u), theta(-z, u)
        th_b = theta(z / b, u)
        w = (th_b * kappa(a, b * z, u) / b, th_b * theta(b * z, u))
        x0 = (theta(z / ab, u), 0.0j)
        x1 = (th * kappa(ab, z, u), th * th)
        xm1 = (th_m * kappa(-ab, -z, u), -th_m * th_m)
        rhs = tuple(lam_p * x1[i] - lam_m * xm1[i] + nu_diff * x0[i] for i in range(2))
        pairs.extend(zip(w, rhs))
    return pairs


@pytest.mark.parametrize("u", BUNDLE_NOMES)
def test_mu_expansion_sweeps_match_per_point_loop(u):
    """Every pair equals the per-point loop's bit for bit (compared by repr,
    so signed zeros count), and so does the report: lhs, rhs and residual."""
    zs = sample_z_points(u, 50, seed=3)
    rng = random.Random(11)
    ab_pairs = guarded_sample(
        lambda: (annulus_point(rng), annulus_point(rng)), lambda ab: mu_sample_ok(*ab, u), 6
    )
    thetas = mu_thetas(u, zs)
    assert repr(thetas) == repr([(theta(z, u), theta(-z, u)) for z in zs])
    from_pairs = ResidualReport.from_pairs
    seen = []

    def capture(*args):
        seen.append(args[3])
        return from_pairs(*args)

    for a, b in ab_pairs:
        expected = _mu_expansion_pairs_per_point(a, b, u, zs)
        with mock.patch.object(ResidualReport, "from_pairs", capture):
            report = mu_expansion_residual(a, b, u, zs, thetas)
        assert repr(seen.pop()) == repr(expected)
        reference = from_pairs("MU_EXPANSION", EvalPoint({"a": a, "b": b}), Nome(u), expected)
        assert repr(report) == repr(reference)


def test_mu_expansion_degenerate_translation():
    """b = 1 collapses the translated section onto v1 itself; the expansion
    must still hold (lambda_1 = 1 and the remaining coefficients cancel the
    v-1 and v0 contributions)."""
    u, a = 0.2, 1.3 - 0.7j
    assert mu_lambda(1.0, u) == pytest.approx(1.0)
    report = mu_expansion_residual(a, 1.0, u, sample_z_points(u, 10, seed=6))
    assert report.rel_residual < 1e-12


def test_mu_second_component_is_theta_addition():
    """Component 2 of the expansion is a pure theta identity, independent of
    the kappa parameter: theta(z/b) theta(b z) = lambda_b theta(z)**2 +
    lambda_{-b} theta(-z)**2."""
    u, b = 0.3 + 0.1j, 1.2 - 0.4j
    lam_p, lam_m = mu_lambda(b, u), mu_lambda(-b, u)
    for z in sample_z_points(u, 8, seed=9):
        lhs = theta(z / b, u) * theta(b * z, u)
        rhs = lam_p * theta(z, u) ** 2 + lam_m * theta(-z, u) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_mu_guard_rejects_poles():
    u = 0.3
    assert not mu_sample_ok(1.0, 0.9, u)  # a on the pole orbit
    assert not mu_sample_ok(u * u, 1.3, u)
    with pytest.raises(DomainError):
        mu_expansion_residual(1.0, 0.9, u, [1.1])


@pytest.mark.parametrize("phase", (0.0, 0.25, 0.5, 0.75))
def test_mu_guard_and_kappa_pole_guard_switch_at_one_distance(phase):
    """bundles.mu_sample_ok and identities.near_kappa_pole both reject a
    parameter a within GUARD_TOL of the pole u**2 and accept it just past
    that distance, from any direction: both read numeric.GUARD_TOL."""
    u, b = 0.3, 1.3 + 0.4j
    assert identities.GUARD_TOL is GUARD_TOL
    step = cmath.exp(2j * math.pi * phase)
    for scale, near in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
        a = u**2 + scale * GUARD_TOL * step
        assert identities.near_kappa_pole(a, u) is near
        assert mu_sample_ok(a, b, u) is not near


def test_sample_z_points_deterministic_and_guarded():
    u = 0.3
    first = sample_z_points(u, 25, seed=5)
    assert first == sample_z_points(u, 25, seed=5)
    from appell_kit.numeric import near_power_orbit

    for z in first:
        assert 0.5 <= abs(z) <= 2.0
        assert not near_power_orbit(z, u, sign=-1, parity=1, tol=1e-3)


@pytest.mark.parametrize("samples, z_points", ((1000, 50), (100, 10)))
def test_mu_expansion_runs_on_a_z_prefix(monkeypatch, samples, z_points):
    """The bundle suite checks every MU_EXPANSION pair on the first
    min(z_count, MU_Z_POINTS) of its z-points, with thetas over that prefix."""
    from appell_kit import bundles

    assert bundles.MU_Z_POINTS == 50
    seen = []
    original = bundles.mu_expansion_residual

    def record(a, b, u, zs, thetas):
        seen.append((u, list(zs), len(thetas)))
        return original(a, b, u, zs, thetas)

    monkeypatch.setattr(bundles, "mu_expansion_residual", record)
    bundles.suite_outcomes(samples, 0)
    z_count = max(8, samples // 10)
    prefixes = {u: sample_z_points(u, z_count, 0)[:z_points] for u in BUNDLE_NOMES}
    assert len(seen) == len(BUNDLE_NOMES) * max(4, samples // 20)
    for u, zs, theta_count in seen:
        assert len(zs) == theta_count == z_points
        assert zs == prefixes[u]


def _bezout_residual_per_point(u, w):
    """|phi1(w) theta2(w) - phi2(w) theta2(q w) - 1| from scalar calls."""
    lam, half, c = lambda_constant(u), 0.5 * theta(1, u) * theta(-1, u), c_constant_theta(u)
    q = u * u
    k = kappa(-1, u * w, u)
    t = theta2(w, u)
    tq = theta2(q * w, u)
    phi1 = lam * (half + k) / (c * t)
    phi2 = -lam * (half - k) / (c * tq)
    return abs(phi1 * t - phi2 * tq - 1.0)


def _suite_outcomes_per_point(samples, seed):
    """The bundle suite as a per-point loop over the scalar evaluators: every
    section, gauge matrix, Bezout residual and MU_EXPANSION pair evaluated
    point by point with scalar kernel calls."""
    from appell_kit import bundles

    rng = random.Random(seed)
    z_count = max(8, samples // 10)
    worst = dict.fromkeys(bundles.RECORD_IDS, 0.0)

    def bump(key, value):
        worst[key] = max(worst[key], value)

    for u in BUNDLE_NOMES:
        zs = sample_z_points(u, z_count, seed)
        bump("SECTION_THETA", check_section(make_L(u), theta_section(u), zs))
        bump("SECTION_PUSH", check_section(make_push(u), push_section(u), zs))
        a_values = guarded_sample(
            lambda: annulus_point(rng),
            lambda a: not bundles.near_power_orbit(a, u, sign=1, parity=0, tol=GUARD_TOL),
            2,
        )
        for a in a_values:
            bump("SECTION_KAPPA_THETA", check_section(make_Fa(a, u), kappa_theta_section(a, u), zs))
            factor = tensor(make_Fa(a, u), make_L(u))
            for section in basis_sections(a, u):
                bump("SECTION_BASIS", check_section(factor, section, zs))
            gauge_b = build_B(a, u)
            bump("GAUGE_B_CONJ", gauge_residual(gauge_b, zs))
            bump("DET_B_SPREAD", determinant_spread(gauge_b, zs))
            ca_t = c_a_theta(a, u)
            bump("CONST_CA_CROSS", abs(ca_t - c_a_kappa(a, u)) / max(1.0, abs(ca_t)))
        gauge_c = build_C(u)
        bump("GAUGE_C_CONJ", gauge_residual(gauge_c, zs))
        bump("DET_C_SPREAD", determinant_spread(gauge_c, zs))
        c_t = c_constant_theta(u)
        bump("CONST_C_CROSS", abs(c_t - c_constant_kappa(u)) / max(1.0, abs(c_t)))
        ws = sample_z_points(u, samples, seed + 1, radius_range=(0.3, 3.0))
        bump("BEZOUT_PAIR", max(_bezout_residual_per_point(u, w) for w in ws))
        mu_pairs = guarded_sample(
            lambda: (annulus_point(rng), annulus_point(rng)),
            lambda ab: mu_sample_ok(*ab, u),
            max(4, samples // 20),
        )
        mu_zs = zs[: bundles.MU_Z_POINTS]
        for a, b in mu_pairs:
            pairs = _mu_expansion_pairs_per_point(a, b, u, mu_zs)
            report = ResidualReport.from_pairs("MU_EXPANSION", EvalPoint({"a": a, "b": b}), Nome(u), pairs)
            bump("MU_EXPANSION", report.rel_residual)
    return [(key, value, bundles.RECORD_LAWS[key]) for key, value in sorted(worst.items())]


@pytest.mark.parametrize("samples, seeds", ((1, (0, 1)), (7, (0, 1)), (100, (0, 1)), (2000, (0,))))
def test_suite_outcomes_match_per_point_loop(samples, seeds):
    """The suite on per-nome sweep columns gives the per-point loop's
    outcomes bit for bit (compared by repr, so signed zeros count)."""
    from appell_kit import bundles

    for seed in seeds:
        outcomes = bundles.suite_outcomes(samples, seed)
        assert repr([tuple(o[:3]) for o in outcomes]) == repr(_suite_outcomes_per_point(samples, seed))
        assert all(o.mismatch is None for o in outcomes)


@pytest.mark.parametrize("u", BUNDLE_NOMES)
def test_suite_scalar_kernel_calls_do_not_grow_with_points(monkeypatch, u):
    """Outside MU_EXPANSION's 26 coefficient thetas per (a, b) pair (3 per
    mu_lambda and 10 per mu_nu, each called twice), the scalar theta,
    theta2 and kappa calls the suite makes through bundles' own bindings
    are per-nome constants: every z-point and w-point goes through a
    sweep."""
    from appell_kit import bundles

    monkeypatch.setattr(bundles, "BUNDLE_NOMES", (u,))
    counts = {}

    def counting(name):
        original = getattr(bundles, name)

        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        return call

    for name in ("theta", "theta2", "kappa"):
        monkeypatch.setattr(bundles, name, counting(name))
    per_run = []
    for samples in (100, 2000):
        counts.clear()
        bundles.suite_outcomes(samples, 0)
        per_run.append(sum(counts.values()) - 26 * max(4, samples // 20))
    assert per_run[0] == per_run[1] < 100


def test_a_theta_error_on_numeric_reaches_the_theta_columns(monkeypatch):
    """theta_sweep calls numeric's own theta at each point, so an error of
    1e-10 * z patched on numeric.theta alone lifts each bundle record that
    reads a theta column past 16 times its unpatched worst."""
    from appell_kit import bundles, numeric

    clean = {o.record_id: o.worst for o in bundles.suite_outcomes(100, 0)}
    original = numeric.theta
    monkeypatch.setattr(numeric, "theta", lambda z, u: original(z, u) + 1e-10 * z)
    patched = {o.record_id: o.worst for o in bundles.suite_outcomes(100, 0)}
    lifted = {record_id for record_id, worst in clean.items() if patched[record_id] > 16 * worst}
    assert lifted >= {
        "SECTION_THETA", "SECTION_PUSH", "SECTION_KAPPA_THETA", "SECTION_BASIS", "GAUGE_B_CONJ", "MU_EXPANSION"
    }, sorted(lifted)
