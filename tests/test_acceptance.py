"""Acceptance gate: the seven headline checks, one printed PASS/FAIL line
each.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they go by; each criterion is also a hard assertion."""

from __future__ import annotations

import cmath
import random
import time

from appell_kit import bundles, identities, modular, qexact
from appell_kit.numeric import DomainError, kappa, near_power_orbit, theta


def _report(number: int, passed: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def test_acceptance_1_registry_residuals():
    """All 25 registry identities: worst relative residual < 1e-9 over 100
    deterministic samples per identity, |q| <= 0.57, under 60 seconds."""
    started = time.monotonic()
    reports = identities.verify_registry(count=100, seed=0)
    elapsed = time.monotonic() - started
    worst = max(r.rel_residual for r in reports.values())
    q_bound = identities.U_ABS_RANGE[1] ** 2
    ok = len(reports) == 25 and worst < 1e-9 and q_bound <= 0.57 and elapsed < 60.0
    assert _report(
        1,
        ok,
        f"25 identities, worst residual {worst:.3e}, |q| <= {q_bound:.4f}, "
        f"{elapsed:.1f}s",
    )


def test_acceptance_2_exact_power_sum_identities():
    """Both three-theta summation identities hold coefficient-by-coefficient
    as exact rational series through order 80, under 10 seconds."""
    started = time.monotonic()
    mismatch1 = qexact.check_for1_exact(80)
    mismatch2 = qexact.check_for2_exact(80)
    elapsed = time.monotonic() - started
    ok = mismatch1 is None and mismatch2 is None and elapsed < 10.0
    assert _report(
        2,
        ok,
        f"mismatches {mismatch1!r}/{mismatch2!r} through u**79, {elapsed:.2f}s",
    )


def test_acceptance_3_triangular_number_representations():
    """The cubed triangular-number generating function equals both closed
    summation forms through q**40, with coefficients matching brute-force
    counts of ordered triples (hence strictly positive)."""
    order = 40
    cube = qexact.triangular_gf(order + 1) ** 3
    double = qexact.as_q_series(qexact.double_sum_series(2 * order + 2))
    andrews = qexact.as_q_series(qexact.andrews_series(2 * order + 2))
    counts = qexact.triangular_counts_bruteforce(order)
    series_counts = tuple(cube.coefficient(m) for m in range(order + 1))
    ok = (
        cube.agrees_with(double) is None
        and cube.agrees_with(andrews) is None
        and series_counts == counts
        and all(c > 0 for c in series_counts)
    )
    assert _report(
        3,
        ok,
        f"three routes agree through q**{order}; counts positive, "
        f"first eight {series_counts[:8]}",
    )


def test_acceptance_4_gauge_matrices_and_bezout():
    """Gauge matrices conjugate the paired factors of automorphy with
    constant determinant, the determinant constants match their independent
    product forms, and the Bezout pair sums to 1: all residuals < 1e-9."""
    rng = random.Random(5)
    worst = 0.0
    pieces = []
    for u in (0.2, 0.4 + 0.1j):
        zs = bundles.sample_z_points(u, 20, seed=2)
        a_values = []
        while len(a_values) < 2:
            a = cmath.rect(rng.uniform(0.6, 1.8), rng.uniform(0.0, 2 * cmath.pi))
            if not near_power_orbit(a, u, sign=1, parity=0, tol=1e-3):
                a_values.append(a)
        for a in a_values:
            gauge_b = bundles.build_B(a, u)
            worst = max(worst, bundles.gauge_residual(gauge_b, zs))
            worst = max(worst, bundles.determinant_spread(gauge_b, zs))
            ca = bundles.c_a_theta(a, u)
            worst = max(
                worst, abs(ca - bundles.c_a_kappa(a, u)) / max(1.0, abs(ca))
            )
        gauge_c = bundles.build_C(u)
        worst = max(worst, bundles.gauge_residual(gauge_c, zs))
        worst = max(worst, bundles.determinant_spread(gauge_c, zs))
        c = bundles.c_constant_theta(u)
        worst = max(worst, abs(c - bundles.c_constant_kappa(u)) / max(1.0, abs(c)))
        ws = bundles.sample_z_points(u, 100, seed=3, radius_range=(0.3, 3.0))
        bez = bundles.bezout_residual(u, ws)
        worst = max(worst, bez)
        pieces.append(f"u={u}: bezout {bez:.3e}")
    ok = worst < 1e-9
    assert _report(4, ok, f"worst residual {worst:.3e}; " + "; ".join(pieces))


def test_acceptance_5_mu_expansion():
    """The rank-2 section built from (kappa, theta) at shifted arguments
    expands in the three standard sections with the stated coefficients:
    residual < 1e-9 at 50 guarded parameter pairs."""
    rng = random.Random(9)
    worst = 0.0
    accepted = 0
    for target, u in ((25, 0.2), (50, 0.4 + 0.1j)):
        zs = bundles.sample_z_points(u, 8, seed=4)
        while accepted < target:
            a = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * cmath.pi))
            b = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * cmath.pi))
            if not bundles.mu_sample_ok(a, b, u):
                continue
            worst = max(
                worst, bundles.mu_expansion_residual(a, b, u, zs).rel_residual
            )
            accepted += 1
    ok = worst < 1e-9 and accepted == 50
    assert _report(5, ok, f"{accepted} guarded pairs, worst residual {worst:.3e}")


def test_acceptance_6_modular_divisibility_and_characters():
    """Divisibility of the modular defect by theta at the generating zeros for both
    parabolic generators and 10 random words (skips counted, some words must
    land in-domain); chi multiplicativity on 50 parabolic pairs; the scalar
    cocycle is exactly 1 at the identity; the squared theta-null cocycle
    matches zeta_sq * (c tau + d)."""
    taus = (1.2j, 2.0j, 0.5 + 1.5j)
    t2 = modular.GammaElement(1, 2, 0, 1)
    v = modular.GammaElement(1, 0, 2, 1)

    div_worst, valid, skipped = 0.0, 0, 0
    rng = random.Random(6)
    words = [t2, v]
    for _ in range(10):
        g = modular.GAMMA_IDENTITY
        for _ in range(rng.randint(1, 3)):
            g = g @ rng.choice(modular.GAMMA_GENERATORS)
        words.append(g)
    for g in words:
        for tau in taus:
            try:
                div_worst = max(div_worst, modular.divisibility_residual(g, tau))
                valid += 1
            except DomainError:
                skipped += 1

    parabolic = modular.GAMMA_GENERATORS[:4]
    chi_worst = 0.0
    for _ in range(50):
        g1 = modular.GAMMA_IDENTITY
        g2 = modular.GAMMA_IDENTITY
        for _ in range(rng.randint(1, 4)):
            g1 = g1 @ rng.choice(parabolic)
        for _ in range(rng.randint(1, 4)):
            g2 = g2 @ rng.choice(parabolic)
        chi_worst = max(
            chi_worst, abs(modular.chi(g1 @ g2) - modular.chi(g1) * modular.chi(g2))
        )

    k_identity = modular.k_gamma(modular.GAMMA_IDENTITY, 1.3j)

    cocycle_worst = 0.0
    for g in (t2, v, modular.GammaElement(0, -1, 1, 0), t2 @ v):
        for tau in (0.3 + 1.1j, 1.7j):
            lhs = (
                modular.theta_additive(0, modular.act_tau(g, tau)) ** 2
                / modular.theta_additive(0, tau) ** 2
            )
            rhs = modular.zeta_sq(g) * (g.c * tau + g.d)
            cocycle_worst = max(cocycle_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

    ok = (
        div_worst < 1e-8
        and valid > 0
        and valid + skipped == 36
        and chi_worst < 1e-12
        and k_identity == 1.0
        and cocycle_worst < 1e-8
    )
    assert _report(
        6,
        ok,
        f"divisibility {div_worst:.3e} (valid={valid} skipped={skipped}), "
        f"chi defect {chi_worst:.1e}, k(identity)={k_identity}, "
        f"cocycle {cocycle_worst:.3e}",
    )


def test_acceptance_7_limits_and_guards():
    """Small-nome limits theta -> 1 and kappa -> 1/(1-a), and the pole guard
    rejects parameters within 1e-14 of the lattice u**(2n)."""
    u = 1e-9
    limit_worst = 0.0
    for z in (1.3, 0.7 - 0.4j):
        limit_worst = max(limit_worst, abs(theta(z, u) - 1.0))
        for a in (0.3 + 0.4j, -1.7):
            limit_worst = max(limit_worst, abs(kappa(a, z, u) - 1.0 / (1.0 - a)))
    guards_ok = True
    for n in range(-3, 4):
        try:
            kappa(0.3 ** (2 * n) * (1.0 + 1e-14), 1.3, 0.3)
            guards_ok = False
        except DomainError:
            pass
    ok = limit_worst < 1e-8 and guards_ok
    assert _report(
        7,
        ok,
        f"small-nome deviation {limit_worst:.3e}, pole guard trips for "
        "a within 1e-14 of u**(2n), n = -3..3",
    )
