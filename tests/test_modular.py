"""Modular-transform tests: group membership and action, the two characters,
the scalar cocycle, kappa0 asymptotics and quasi-periodicity, the exact
index map on theta zeros, and divisibility of the modular defect."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from appell_kit import cli, modular
from appell_kit.modular import (
    GAMMA_GENERATORS,
    GAMMA_IDENTITY,
    GENERATING_ZEROS,
    MIN_IM_TAU,
    GammaElement,
    ThetaZeroIndex,
    act_tau,
    chi,
    divisibility_residual,
    gamma_zero_index,
    k_gamma,
    kappa0,
    theta_additive,
    theta_zero,
    zero_residuals,
    zeta_sq,
)
from appell_kit.numeric import DomainError, PoleProximityError, theta

T2 = GammaElement(1, 2, 0, 1)
V = GammaElement(1, 0, 2, 1)
S = GammaElement(0, -1, 1, 0)
TAUS = (1.2j, 2.0j, 0.5 + 1.5j)


def modular_defect(gamma: GammaElement, x: complex, tau: complex) -> complex:
    """The raw-series route: D(x) = kappa0(x/(c tau+d), gamma.tau) - zeta_sq^-1
    chi^-1 (c tau+d) exp(pi*i*(1/(c tau+d) - 1) x) kappa0(x, tau), each
    kappa0 summed at x itself.  Identically zero for the identity element; in
    general a holomorphic multiple of theta(x, tau)."""
    gtau = act_tau(gamma, tau)
    denom = gamma.c * tau + gamma.d
    lead = kappa0(x / denom, gtau)
    trail = (
        1.0
        / (zeta_sq(gamma) * chi(gamma))
        * denom
        * cmath.exp(1j * math.pi * (1.0 / denom - 1.0) * x)
        * kappa0(x, tau)
    )
    return lead - trail


def test_membership_validation():
    GammaElement(1, 2, 0, 1)
    GammaElement(0, -1, 1, 0)
    GammaElement(1, 0, 2, 1)
    GammaElement(3, 2, 4, 3)
    with pytest.raises(DomainError):
        GammaElement(1, 1, 0, 1)  # b*d odd
    with pytest.raises(DomainError):
        GammaElement(1, 0, 1, 1)  # a*c odd
    with pytest.raises(DomainError):
        GammaElement(2, 0, 0, 2)  # det != 1
    with pytest.raises(DomainError):
        GammaElement(1.0, 0, 0, 1)  # non-integer entries


def test_group_operations():
    assert len(GAMMA_GENERATORS) == 5


def test_moebius_action_composes():
    tau = 0.3 + 1.1j
    for g1 in (T2, V, S):
        for g2 in (V, S, T2 @ V):
            composed = act_tau(g1 @ g2, tau)
            nested = act_tau(g1, act_tau(g2, tau))
            assert abs(composed - nested) < 1e-12


def test_character_values():
    assert zeta_sq(GAMMA_IDENTITY) == 1
    assert chi(GAMMA_IDENTITY) == 1
    assert chi(T2) == 1j
    assert zeta_sq(T2) == 1
    assert zeta_sq(S) == -1j
    assert zeta_sq(V) == 1
    for g in (T2, V, S, T2 @ V, S @ T2):
        assert abs(abs(zeta_sq(g)) - 1.0) < 1e-15
        assert abs(abs(chi(g)) - 1.0) < 1e-15


def test_chi_multiplicative_on_parabolic_words():
    parabolic = GAMMA_GENERATORS[:4]
    rng = random.Random(0)

    def word():
        g = GAMMA_IDENTITY
        for _ in range(rng.randint(1, 4)):
            g = g @ rng.choice(parabolic)
        return g

    for _ in range(50):
        g1, g2 = word(), word()
        assert abs(chi(g1 @ g2) - chi(g1) * chi(g2)) < 1e-12


def test_theta_null_cocycle():
    """theta(0, g.tau)**2 / theta(0, tau)**2 = zeta_sq(g) * (c tau + d)."""
    for g in (T2, V, S, T2 @ V, V @ V @ T2, S @ T2):
        for tau in (0.3 + 1.1j, 1.7j):
            lhs = theta_additive(0, act_tau(g, tau)) ** 2 / theta_additive(0, tau) ** 2
            rhs = zeta_sq(g) * (g.c * tau + g.d)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_k_gamma_identity_is_exactly_one():
    assert k_gamma(GAMMA_IDENTITY, 1.3j) == 1.0
    assert k_gamma(GAMMA_IDENTITY, 0.4 + 2.1j) == 1.0


def _chi_mutant(table=(1, 1j, -1, -1j), shift=0):
    """chi with its phase table and phase index shift as given; the defaults
    give chi itself."""

    def mutant(g: GammaElement) -> complex:
        phase = table[((g.a * g.b + g.c * g.d) // 2 + shift) % 4]
        return (1, -1)[((g.a if g.a % 2 == 0 else g.c) // 2) % 2] * phase

    return mutant


def _zeta_sq_mutant(odd_d_shift=0, odd_c_table=(1, -1j, -1, 1j)):
    """zeta_sq with its odd-d exponent shifted and its odd-c table as given;
    the defaults give zeta_sq itself."""

    def mutant(g: GammaElement) -> complex:
        if g.d % 2:
            return complex((-1) ** (((g.d - 1) // 2 + odd_d_shift) % 2))
        return complex(odd_c_table[g.c % 4])

    return mutant


def test_character_mutant_factories_default_to_the_characters():
    """Each mutant below differs from chi or zeta_sq in its one argument."""
    rng = random.Random(0)
    words = [GAMMA_IDENTITY, *GAMMA_GENERATORS, *(modular._random_word(rng, GAMMA_GENERATORS, 6) for _ in range(300))]
    for g in words:
        assert _chi_mutant()(g) == chi(g)
        assert _zeta_sq_mutant()(g) == zeta_sq(g)


DIVISIBILITY = {"DIVISIBILITY_GENERATORS", "DIVISIBILITY_WORDS"}


@pytest.mark.parametrize(
    "name, mutant, failing",
    (
        ("chi", _chi_mutant(shift=1), {"K_GAMMA_IDENTITY", "CHI_MULTIPLICATIVITY", *DIVISIBILITY}),
        ("chi", _chi_mutant(table=(1, -1j, -1, 1j)), DIVISIBILITY),
        ("zeta_sq", _zeta_sq_mutant(odd_d_shift=1), {"K_GAMMA_IDENTITY", "ZETA_SQ_COCYCLE", *DIVISIBILITY}),
        ("zeta_sq", _zeta_sq_mutant(odd_c_table=(1, 1j, -1, -1j)), {"ZETA_SQ_COCYCLE", "DIVISIBILITY_WORDS"}),
    ),
    ids=("chi-phase-index-plus-one", "chi-phase-table-conjugated", "zeta-sq-odd-d-exponent-plus-one",
         "zeta-sq-odd-c-table-conjugated"),
)
def test_character_mutants_fail_a_modular_record(monkeypatch, name, mutant, failing):
    """A wrong phase in chi or zeta_sq, patched on modular, fails these
    records of suite_outcomes(100, 0) at tolerance 1e-9 and no others.

    No mutant swaps chi's a-even and c-even branches: det = 1 rules out a
    and c both even, and Gamma_{1,2} rules out both odd, so exactly one of
    them is even and the swapped function is chi itself on every element."""
    monkeypatch.setattr(modular, name, mutant)
    records = [cli._record(o, 1e-9) for o in modular.suite_outcomes(100, 0)]
    assert {r["record_id"] for r in records if not r["passed"]} == failing


def test_kappa0_large_imaginary_tau_asymptotics():
    """For Im tau large the nome is tiny and kappa0(x, tau) approaches
    exp(3 pi i tau / 4) * (1 + exp(2 pi i x))."""
    tau = 5.0j
    for x in (0.3, 0.1 + 0.2j):
        expected = cmath.exp(0.75j * math.pi * tau) * (
            1.0 + cmath.exp(2j * math.pi * x)
        )
        assert abs(kappa0(x, tau) - expected) <= 1e-5 * abs(expected)


def test_kappa0_at_base_zero_matches_special_value():
    """At x0 = (tau+1)/2 the multiplicative argument is -u, so kappa0 reduces
    to exp(3 pi i tau/4) * theta(-1) theta(u) / 2."""
    for tau in (1.5j, 0.4 + 1.3j):
        u = cmath.exp(1j * math.pi * tau)
        expected = (
            cmath.exp(0.75j * math.pi * tau) * 0.5 * theta(-1, u) * theta(u, u)
        )
        value = kappa0((tau + 1.0) / 2.0, tau)
        assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_kappa0_quasi_periodicity():
    """kappa0(x0 + m + n tau) = exp(pi i n (tau + 1)) kappa0(x0) on the
    theta zeros, the phase law divisibility_residual relies on."""
    tau = 0.3 + 1.4j
    x0 = (tau + 1.0) / 2.0
    base = kappa0(x0, tau)
    for m in (-2, 0, 1):
        for n in (-2, -1, 0, 1, 2):
            direct = kappa0(x0 + m + n * tau, tau)
            reduced = cmath.exp(1j * math.pi * n * (tau + 1.0)) * base
            assert abs(direct - reduced) <= 1e-10 * max(1.0, abs(direct))


def test_gamma_zero_index_is_exact():
    """x/(c tau + d) lands exactly on the mapped theta zero of gamma.tau."""
    rng = random.Random(3)
    elements = [T2, V, S, T2 @ V, S @ T2, V @ T2 @ V]
    for g in elements:
        for _ in range(5):
            index = ThetaZeroIndex(rng.randint(-3, 3), rng.randint(-3, 3))
            tau = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.8, 2.0)
            mapped = gamma_zero_index(g, index)
            lhs = theta_zero(index, tau) / (g.c * tau + g.d)
            rhs = theta_zero(mapped, act_tau(g, tau))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class GaussQ(NamedTuple):
    """An exact Gaussian rational re + im*i.  Ints and floats lift exactly,
    so the module's own float expressions (``theta_zero``) evaluate exactly."""

    re: Fraction
    im: Fraction

    @staticmethod
    def lift(w) -> "GaussQ":
        return w if isinstance(w, GaussQ) else GaussQ(Fraction(w), Fraction(0))

    def __add__(self, other):
        other = GaussQ.lift(other)
        return GaussQ(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + GaussQ.lift(other) * -1

    def __mul__(self, other):
        other = GaussQ.lift(other)
        return GaussQ(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussQ.lift(other)
        norm = other.re**2 + other.im**2
        return self * GaussQ(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return GaussQ.lift(other) / self


def _phase_exponent(g: GammaElement, index: ThetaZeroIndex, tau: GaussQ) -> GaussQ:
    """The (m, n)-dependent part of log(lead / trail) in zero_residuals, over
    pi*i: n'*(gamma.tau + 1) - (1/D - 1)*x - n*(tau + 1)."""
    denom = g.c * tau + g.d
    gtau = (g.a * tau + g.b) / denom
    n_mapped = gamma_zero_index(g, index).n
    return n_mapped * (gtau + 1) - (1 / denom - 1) * theta_zero(index, tau) - index.n * (tau + 1)


def test_zero_lattice_algebra_is_exact():
    """With tau a Gaussian rational, x/D is exactly the mapped zero of
    gamma.tau, and the phase exponent steps by pi*i*(1-a-c) per unit m and
    pi*i*(b+d-1) per unit n, both even multiples of pi*i.  So the law on the
    whole lattice follows from the base zero, out to |m|, |n| near 10**6."""
    rng = random.Random(18)
    words = list(GAMMA_GENERATORS)
    for _ in range(20):
        g = GAMMA_IDENTITY
        for _ in range(rng.randint(2, 6)):
            g = g @ rng.choice(GAMMA_GENERATORS)
        words.append(g)
    wide = 10**6
    corners = [(m, n) for m in (-wide, -wide + 1, 0, wide - 1, wide) for n in (-wide, 0, 1, wide)]
    for g in words:
        re, im = Fraction(rng.randint(-40, 40), rng.randint(1, 9)), Fraction(rng.randint(1, 40), rng.randint(1, 9))
        tau = GaussQ(re, im)
        denom = g.c * tau + g.d
        gtau = (g.a * tau + g.b) / denom
        step_m, step_n = 1 - g.a - g.c, g.b + g.d - 1
        assert step_m % 2 == 0 and step_n % 2 == 0
        spread = [(rng.randint(-wide, wide), rng.randint(-wide, wide)) for _ in range(10)]
        for m, n in corners + spread:
            index = ThetaZeroIndex(m, n)
            assert theta_zero(index, tau) / denom == theta_zero(gamma_zero_index(g, index), gtau)
            base = _phase_exponent(g, index, tau)
            assert _phase_exponent(g, ThetaZeroIndex(m + 1, n), tau) - base == GaussQ.lift(step_m)
            assert _phase_exponent(g, ThetaZeroIndex(m, n + 1), tau) - base == GaussQ.lift(step_n)


def _n_step_off_by_two(g: GammaElement, index: ThetaZeroIndex) -> ThetaZeroIndex:
    """gamma_zero_index with the n-step coefficient d read as d + 2."""
    mapped = gamma_zero_index(g, index)
    return ThetaZeroIndex(mapped.m, mapped.n + 2 * index.n)


def _n_minus_m(g: GammaElement, index: ThetaZeroIndex) -> ThetaZeroIndex:
    mapped = gamma_zero_index(g, index)
    return ThetaZeroIndex(mapped.m, mapped.n - index.m)


def _n_shifted(g: GammaElement, index: ThetaZeroIndex) -> ThetaZeroIndex:
    mapped = gamma_zero_index(g, index)
    return ThetaZeroIndex(mapped.m, mapped.n + 1)


def _m_shifted(g: GammaElement, index: ThetaZeroIndex) -> ThetaZeroIndex:
    mapped = gamma_zero_index(g, index)
    return ThetaZeroIndex(mapped.m + 1, mapped.n)


@pytest.mark.parametrize(
    "mutant, seen_at_base", ((_n_step_off_by_two, False), (_n_minus_m, False), (_n_shifted, True))
)
def test_generating_zeros_catch_what_the_base_zero_misses(monkeypatch, mutant, seen_at_base):
    """A wrong slope in gamma_zero_index leaves the base zero (0, 0) exact
    and shows only at the unit steps (1, 0) and (0, 1), so both divisibility
    records fail on GENERATING_ZEROS (about 1.34 against 5.3e-16 at the base
    zero alone); a wrong constant shift shows at the base zero as well.

    An error in m' can never show here: x -> x + 1 is a period of kappa0, so
    the residual reads only n' (see the next test).
    test_zero_lattice_algebra_is_exact is the only guard of m'."""
    monkeypatch.setattr(modular, "gamma_zero_index", mutant)
    base_worst = max(
        r for g in GAMMA_GENERATORS for tau in TAUS for _, r in zero_residuals(g, tau, GENERATING_ZEROS[:1])
    )
    assert (base_worst > 1.0) is seen_at_base
    assert base_worst > 1.0 or base_worst < 1e-15
    records = {o.record_id: cli._record(o, 1e-9) for o in modular.suite_outcomes(100, 0)}
    for record_id in ("DIVISIBILITY_GENERATORS", "DIVISIBILITY_WORDS"):
        assert not records[record_id]["passed"]
        assert records[record_id]["worst"] > 1.0


def test_an_m_shift_never_shows_in_the_residual(monkeypatch):
    """gamma_zero_index with m' off by one leaves every modular record
    unchanged, to the bit."""
    expected = modular.suite_outcomes(100, 0)
    monkeypatch.setattr(modular, "gamma_zero_index", _m_shifted)
    assert modular.suite_outcomes(100, 0) == expected


@pytest.mark.parametrize("gamma", (T2, V))
def test_divisibility_phase_overflow_is_domain_error(gamma):
    """At tau = 2i the phase exp(pi*i*n*(tau+1)) overflows from n = -113 on;
    the error names the zero index and tau instead of an OverflowError."""
    assert next(zero_residuals(gamma, 2.0j, (ThetaZeroIndex(0, -112),)))[1] < 1e-10
    with pytest.raises(DomainError) as info:
        next(zero_residuals(gamma, 2.0j, (ThetaZeroIndex(0, -113),)))
    assert str(info.value) == (
        "quasi-periodicity phase overflows at zero index (m, n) = (0, -113), tau = 2j"
    )
    far_row = [ThetaZeroIndex(-120, n) for n in range(-120, 121)]
    with pytest.raises(DomainError, match=r"\(-120, -120\), tau = 2j"):
        max(residual for _, residual in zero_residuals(gamma, 2.0j, far_row))


@pytest.mark.parametrize(
    "gamma, tau, index", ((V, 1.2j, ThetaZeroIndex(300, 116)), (S, 3.0j, ThetaZeroIndex(-300, 108)))
)
def test_divisibility_product_overflow_is_domain_error(gamma, tau, index):
    """Every phase is finite here, but their product is not; the residual
    used to come out NaN and read as 0.0 through max()."""
    with pytest.raises(DomainError, match="quasi-periodicity phase overflows"):
        next(zero_residuals(gamma, tau, (index,)))


def test_divisibility_identity_element_is_exact_zero():
    assert modular_defect(GAMMA_IDENTITY, 0.3 + 0.2j, 1.5j) == 0j
    assert divisibility_residual(GAMMA_IDENTITY, 1.5j) == 0.0


@pytest.mark.parametrize("gamma", (T2, V))
@pytest.mark.parametrize("tau", TAUS)
def test_divisibility_generators(gamma, tau):
    assert divisibility_residual(gamma, tau) < 1e-10


def test_divisibility_random_words_with_skip_accounting():
    rng = random.Random(1)

    def word():
        g = GAMMA_IDENTITY
        for _ in range(rng.randint(1, 3)):
            g = g @ rng.choice(GAMMA_GENERATORS)
        return g

    valid = skipped = 0
    worst = 0.0
    for _ in range(10):
        g = word()
        for tau in TAUS:
            try:
                worst = max(worst, divisibility_residual(g, tau))
                valid += 1
            except DomainError:
                skipped += 1
    assert valid > 0
    assert valid + skipped == 30
    assert worst < 1e-10


def test_divisibility_domain_guard():
    """Elements that push Im gamma.tau below the floor must be refused, not
    silently evaluated in an ill-conditioned regime."""
    squeezing = GammaElement(1, 2, 4, 9)
    for tau in TAUS:
        gtau = act_tau(squeezing, tau)
        assert gtau.imag < MIN_IM_TAU
        with pytest.raises(DomainError):
            divisibility_residual(squeezing, tau)
    with pytest.raises(DomainError):
        divisibility_residual(T2, 0.05j)


def test_refusals_name_the_tau_given():
    """A non-finite tau, an Im tau whose nome squares to 0 or meets kappa's
    pole guard at a = -u, and a |Re tau| or |Re gamma.tau| past
    MAX_ABS_RE_TAU are refused in terms of tau, not of gamma.tau = NaN or of
    the nome.  Just inside the Re bound T**2 still reads below 1e-13."""
    for tau in (complex(math.inf, 1.0), complex(math.nan, 1.0), complex(1.0, math.inf)):
        for call in (act_tau, divisibility_residual, lambda gamma, tau: theta_additive(0.3, tau)):
            with pytest.raises(DomainError, match=r"^tau must be finite with positive imaginary part"):
                call(T2, tau)
    for call in (theta_additive, kappa0, lambda x, tau: modular.kappa0_sweep([x], tau)):
        with pytest.raises(DomainError, match=r"^Im tau = 150 gives a nome whose square underflows to 0"):
            call(0.3, 150j)
    for call in (kappa0, lambda x, tau: modular.kappa0_sweep([x, x + 0.5], tau),
                 lambda x, tau: divisibility_residual(T2, tau)):
        with pytest.raises(DomainError, match=r"^Im tau = 6 gives \|u\| = 6.51e-09, .*; decrease Im tau$") as info:
            call(0.3, 6j)
        assert "a =" not in str(info.value) and not isinstance(info.value, PoleProximityError)
    for gamma, tau in ((T2, 1e5 + 1j), (GammaElement(1, -2, 0, 1), -1e4 + 1j), (GammaElement(1, 20000, 0, 1), 2j)):
        with pytest.raises(DomainError, match=r"^\|Re\| of tau = "):
            divisibility_residual(gamma, tau)
    assert divisibility_residual(T2, -1e4 + 1j) < 1e-13


def test_raw_defect_vanishes_on_zero_grid():
    """The raw bilateral-series route (no quasi-periodicity reduction) agrees
    that the defect vanishes on the central 3x3 block of zeros, where
    conditioning allows."""
    tau = 2.0j
    for gamma in (T2, V):
        for index in (ThetaZeroIndex(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)):
            x = theta_zero(index, tau)
            assert abs(modular_defect(gamma, x, tau)) < 1e-9


def test_phi_gamma_bounded_along_segment():
    """phi = exp(-3*pi*i*gamma.tau/4) * D(x) / theta(x, tau) stays O(1) along
    a segment crossing the fundamental cell, away from zeros: the quotient
    really is holomorphic, not merely meromorphic."""
    tau = 1.5j
    gamma = V
    lead = cmath.exp(-0.75j * math.pi * act_tau(gamma, tau))
    values = []
    for t in range(0, 11):
        x = 0.05 + t * 0.08 + 0.21j
        values.append(abs(modular_defect(gamma, x, tau) * lead / theta_additive(x, tau)))
    assert max(values) < 1e3
