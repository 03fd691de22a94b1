"""Gamma_{1,2} arithmetic and the modular transformation law of kappa0.

The theta group Gamma_{1,2} consists of integer matrices [[a, b], [c, d]]
with determinant 1 and a*c = b*d = 0 (mod 2).  It acts on pairs (x, tau)
in C x H by

    gamma . (x, tau) = (x / (c*tau + d), (a*tau + b) / (c*tau + d)),

and it is exactly the subgroup of SL_2(Z) that fixes the 2-torsion point
(tau + 1)/2 modulo the lattice, which is where every theta zero sits.

This module evaluates the two unit characters attached to the group --
``zeta_sq`` (the square of the theta multiplier) and ``chi`` (a quartic
character) -- together with the scalar cocycle ``k_gamma`` built from them,
and converts between additive coordinates (x, tau) and the multiplicative
ones (z, u) = (exp(2*pi*i*x), exp(pi*i*tau)) used by :mod:`appell_kit.numeric`.

The headline check is ``divisibility_residual``: the modular defect

    D(x) = kappa0(x/(c*tau+d), gamma.tau)
           - zeta_sq(gamma)^-1 chi(gamma)^-1 (c*tau+d)
             exp(pi*i*(1/(c*tau+d) - 1)*x) kappa0(x, tau)

vanishes at every zero x = (tau+1)/2 + m + n*tau of theta(x, tau), which is
the finite-order obstruction to D being a holomorphic multiple of theta.
The log of the law's two sides differs by an affine function of (m, n), so
it is checked at the three zeros ``GENERATING_ZEROS``.

``suite_outcomes`` is the verify report's modular suite: these laws on sampled elements.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Iterable, Iterator, NamedTuple, Sequence

from appell_kit.numeric import DomainError, Outcome, PoleProximityError, kappa_sweep, theta

#: Convergence guard for divisibility checks: both tau and gamma.tau must
#: satisfy Im tau >= MIN_IM_TAU, i.e. |u| <= exp(-0.1*pi) ~ 0.73, which keeps
#: double precision comfortable on both nomes.
MIN_IM_TAU = 0.1

#: Hard ceiling on |u| for the additive wrappers themselves (kappa0,
#: theta_additive); beyond this the bilateral series are numerically useless.
MAX_ABS_U = 0.99

#: Divisibility checks refuse |Re tau| or |Re gamma.tau| above this: the phase
#: exp(2*pi*i*x) at a theta zero loses about |Re tau| * eps of precision.
MAX_ABS_RE_TAU = 1e4


class GammaElement(NamedTuple("GammaElement", [("a", int), ("b", int), ("c", int), ("d", int)])):
    """An element [[a, b], [c, d]] of Gamma_{1,2}, validated on construction."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "GammaElement":
        for name, entry in zip("abcd", (a, b, c, d)):
            if not isinstance(entry, int):
                raise DomainError(f"entry {name} must be an integer")
        if a * d - b * c != 1:
            raise DomainError(f"determinant must be 1, got {a * d - b * c}")
        if (a * c) % 2 != 0 or (b * d) % 2 != 0:
            raise DomainError(
                "not in Gamma_{1,2}: need a*c and b*d both even, got "
                f"a*c = {a * c}, b*d = {b * d}"
            )
        return super().__new__(cls, a, b, c, d)

    def __matmul__(self, other: "GammaElement") -> "GammaElement":
        return GammaElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


GAMMA_IDENTITY = GammaElement(1, 0, 0, 1)

#: Standard generators used by the random-word checks (T^2 and its transpose
#: lie in Gamma_{1,2}; T itself does not).
GAMMA_GENERATORS = (
    GammaElement(1, 2, 0, 1),
    GammaElement(1, 0, 2, 1),
    GammaElement(1, -2, 0, 1),
    GammaElement(1, 0, -2, 1),
    GammaElement(0, -1, 1, 0),
)


class ThetaZeroIndex(NamedTuple):
    """Lattice index (m, n) selecting the theta zero x = (tau+1)/2 + m + n*tau."""

    m: int
    n: int


def theta_zero(index: ThetaZeroIndex, tau: complex) -> complex:
    """The theta zero (tau + 1)/2 + m + n*tau."""
    return (tau + 1.0) / 2.0 + index.m + index.n * tau


#: The base zero and its unit steps; the law is affine in (m, n), so these fix it.
GENERATING_ZEROS = (ThetaZeroIndex(0, 0), ThetaZeroIndex(1, 0), ThetaZeroIndex(0, 1))


def act_tau(gamma: GammaElement, tau: complex) -> complex:
    """Moebius action (a*tau + b) / (c*tau + d) on the upper half plane."""
    if not (cmath.isfinite(tau) and complex(tau).imag > 0.0):
        raise DomainError(f"tau must be finite with positive imaginary part, got {tau}")
    return (gamma.a * tau + gamma.b) / (gamma.c * tau + gamma.d)


def zeta_sq(gamma: GammaElement) -> complex:
    """The squared theta multiplier: (-1)^((d-1)/2) for d odd, exp(-pi*i*c/2)
    for c odd.  Membership in Gamma_{1,2} forces exactly one case to apply."""
    if gamma.d % 2 != 0:
        return complex((-1) ** (((gamma.d - 1) // 2) % 2))
    # det = 1 rules out c and d both even, so c is odd here.
    return (1 + 0j, -1j, -1 + 0j, 1j)[gamma.c % 4]


def chi(gamma: GammaElement) -> complex:
    """The quartic character (-1)^(a/2) exp(pi*i*(ab+cd)/4) for a even,
    (-1)^(c/2) exp(pi*i*(ab+cd)/4) for c even.

    For Gamma_{1,2}, ab + cd is always even, so the exponential is the exact
    fourth root of unity i^((ab+cd)/2)."""
    twice = gamma.a * gamma.b + gamma.c * gamma.d
    phase = (1 + 0j, 1j, -1 + 0j, -1j)[(twice // 2) % 4]
    if gamma.a % 2 == 0:
        return (1, -1)[(gamma.a // 2) % 2] * phase
    # a odd: membership (a*c even) forces c even.
    return (1, -1)[(gamma.c // 2) % 2] * phase


def k_gamma(gamma: GammaElement, tau: complex) -> complex:
    """The scalar cocycle exp(3*pi*i/4*(tau - gamma.tau)) * zeta_sq^-1 *
    chi^-1 * (c*tau + d).  Equals 1 exactly for the identity element."""
    denom = gamma.c * tau + gamma.d
    gtau = act_tau(gamma, tau)
    return (
        cmath.exp(0.75j * math.pi * (tau - gtau))
        / (zeta_sq(gamma) * chi(gamma))
        * denom
    )


def _nome_from_tau(tau: complex) -> complex:
    if not (cmath.isfinite(tau) and complex(tau).imag > 0.0):
        raise DomainError(f"tau must be finite with positive imaginary part, got {tau}")
    u = cmath.exp(1j * math.pi * tau)
    if abs(u) >= MAX_ABS_U:
        raise DomainError(f"Im tau = {tau.imag:.4g} gives |u| = {abs(u):.4g} >= {MAX_ABS_U}; increase Im tau")
    if u * u == 0:
        raise DomainError(f"Im tau = {tau.imag:.4g} gives a nome whose square underflows to 0; decrease Im tau")
    return u


def theta_additive(x: complex, tau: complex) -> complex:
    """theta in additive coordinates: theta(exp(2*pi*i*x), exp(pi*i*tau))."""
    u = _nome_from_tau(tau)
    return theta(cmath.exp(2j * math.pi * x), u)


def kappa0(x: complex, tau: complex) -> complex:
    """The normalized Appell value exp(3*pi*i*tau/4) * kappa(a, z, u) at the
    2-torsion parameter a = exp(pi*i*(tau+1)) = -u, z = exp(2*pi*i*x):
    ``kappa0_sweep`` at the one point x."""
    return kappa0_sweep([x], tau)[0]


def kappa0_sweep(xs: Sequence[complex], tau: complex) -> list[complex]:
    """[kappa0(x, tau) for x in xs], through one kappa sweep at a = -u.  The
    parameter -u never meets the pole orbit q**Z, but kappa's absolute pole
    guard takes it for q once |u| is below about 1e-8 (Im tau above about
    5.86); that refusal is raised in terms of tau."""
    u = _nome_from_tau(tau)
    lead = cmath.exp(0.75j * math.pi * tau)
    try:
        values = kappa_sweep(-u, [cmath.exp(2j * math.pi * x) for x in xs], u)
    except PoleProximityError:
        raise DomainError(f"Im tau = {tau.imag:.4g} gives |u| = {abs(u):.3g}, so small that kappa's "
                          "pole guard takes the parameter -u for the pole q = u**2; decrease Im tau") from None
    return [lead * k for k in values]


def gamma_zero_index(gamma: GammaElement, index: ThetaZeroIndex) -> ThetaZeroIndex:
    """The exact image of a theta zero under the Gamma_{1,2} action.

    With x = (tau+1)/2 + m + n*tau and D = c*tau + d, the Moebius identities
    1/D = a - c*gamma.tau and tau/D = d*gamma.tau - b give

        x/D = (gamma.tau + 1)/2 + m' + n'*gamma.tau,
        m' = (a - b - 1)/2 + m*a - n*b,
        n' = (d - c - 1)/2 + n*d - m*c,

    where a - b and d - c are odd for every element of Gamma_{1,2} (the mod-2
    membership pattern is [[1,0],[0,1]] or [[0,1],[1,0]]), so both shifts are
    integers.  This is the statement that the group preserves the 2-torsion
    zero locus."""
    m2 = (gamma.a - gamma.b - 1) // 2 + index.m * gamma.a - index.n * gamma.b
    n2 = (gamma.d - gamma.c - 1) // 2 + index.n * gamma.d - index.m * gamma.c
    return ThetaZeroIndex(m2, n2)


def _require_divisibility_domain(gamma: GammaElement, tau: complex) -> complex:
    """Check the Im >= MIN_IM_TAU and |Re| <= MAX_ABS_RE_TAU guards on both
    tau and gamma.tau; returns gamma.tau."""
    gtau = act_tau(gamma, tau)
    if complex(tau).imag < MIN_IM_TAU:
        raise DomainError(
            f"Im tau = {complex(tau).imag:.4g} < {MIN_IM_TAU}; increase Im tau"
        )
    if not (abs(tau.real) <= MAX_ABS_RE_TAU and abs(gtau.real) <= MAX_ABS_RE_TAU):
        raise DomainError(f"|Re| of tau = {tau} or gamma.tau = {gtau} exceeds {MAX_ABS_RE_TAU:g}")
    if complex(gtau).imag < MIN_IM_TAU:
        raise DomainError(
            f"Im gamma.tau = {complex(gtau).imag:.4g} < {MIN_IM_TAU} for "
            f"gamma = {gamma}; pick tau with larger |c*tau + d| headroom"
        )
    return gtau


def zero_residuals(
    gamma: GammaElement, tau: complex, zeros: Iterable[ThetaZeroIndex]
) -> Iterator[tuple[ThetaZeroIndex, float]]:
    """(index, |D(x)| / max(1, |terms|)) for each theta zero
    x = (tau+1)/2 + m + n*tau in ``zeros``, any indices in any order.  Small
    residuals witness divisibility of the modular defect by theta(x, tau);
    the checks pass ``GENERATING_ZEROS``.

    The domain is checked and both kappa0 factors are evaluated once, at the
    base zero (tau+1)/2 of their nome, and carried to each zero by the exact
    quasi-periodicity law kappa0(x0 + m + n*tau) = exp(pi*i*n*(tau+1)) *
    kappa0(x0); the gamma-side argument x/(c*tau+d) is itself a theta zero of
    gamma.tau (see ``gamma_zero_index``).  Summing the bilateral series
    directly at z = -u**(2n+1) would lose roughly |u|**(-n**2) of precision
    to cancellation, while the phases keep every zero well conditioned.  The
    raw-series route agrees wherever it is conditioned well enough;
    tests/test_modular.py keeps it as the reference.  A far zero whose phase
    overflows is a DomainError naming its index and tau."""
    gtau = _require_divisibility_domain(gamma, tau)
    denom = gamma.c * tau + gamma.d
    char = 1.0 / (zeta_sq(gamma) * chi(gamma))
    base_lead = kappa0((gtau + 1.0) / 2.0, gtau)
    base_trail = kappa0((tau + 1.0) / 2.0, tau)
    for index in zeros:
        x = theta_zero(index, tau)
        g_index = gamma_zero_index(gamma, index)
        try:
            lead = cmath.exp(1j * math.pi * g_index.n * (gtau + 1.0)) * base_lead
            trail = (
                char
                * denom
                * cmath.exp(1j * math.pi * (1.0 / denom - 1.0) * x)
                * cmath.exp(1j * math.pi * index.n * (tau + 1.0))
                * base_trail
            )
            residual = abs(lead - trail) / max(1.0, abs(lead), abs(trail))
        except OverflowError:
            residual = math.inf
        if not math.isfinite(residual):
            raise DomainError(
                f"quasi-periodicity phase overflows at zero index (m, n) = "
                f"({index.m}, {index.n}), tau = {tau}"
            )
        yield index, residual


def divisibility_residual(gamma: GammaElement, tau: complex) -> float:
    """The worst of ``zero_residuals`` over ``GENERATING_ZEROS``.  The base
    zero checks the law's constant term and the unit steps its slopes in m
    and n, so the law holds at every theta zero when all three pass."""
    return max(residual for _, residual in zero_residuals(gamma, tau, GENERATING_ZEROS))


#: tau values swept by the divisibility records.
MODULAR_TAUS = (1.2j, 2.0j, 0.5 + 1.5j)

RECORD_IDS = ("K_GAMMA_IDENTITY", "ZETA_SQ_COCYCLE", "CHI_MULTIPLICATIVITY", "DIVISIBILITY_GENERATORS",
              "DIVISIBILITY_WORDS")


def _random_word(rng: random.Random, alphabet: Sequence[GammaElement], max_len: int) -> GammaElement:
    g = GAMMA_IDENTITY
    for _ in range(rng.randint(1, max_len)):
        g = g @ rng.choice(alphabet)
    return g


def suite_outcomes(samples: int, seed: int) -> list[Outcome]:
    """Every modular record, in ``RECORD_IDS`` order.  CHI_MULTIPLICATIVITY
    checks max(1, samples // 2) pairs of random words."""
    rng = random.Random(seed)

    # theta-null cocycle: theta(0, g.tau)**2 / theta(0, tau)**2 = zeta_sq * (c tau + d).
    t2, v_elt, s_elt = GammaElement(1, 2, 0, 1), GammaElement(1, 0, 2, 1), GammaElement(0, -1, 1, 0)
    cocycle_worst = 0.0
    for g in (t2, v_elt, s_elt, t2 @ v_elt, v_elt @ v_elt @ t2, s_elt @ t2):
        for tau in (0.3 + 1.1j, 1.7j):
            lhs = theta_additive(0, act_tau(g, tau)) ** 2 / theta_additive(0, tau) ** 2
            rhs = zeta_sq(g) * (g.c * tau + g.d)
            cocycle_worst = max(cocycle_worst, abs(lhs - rhs) / max(1.0, abs(rhs)))

    # chi is multiplicative on words in the parabolic generators.
    parabolic = GAMMA_GENERATORS[:4]
    chi_worst = 0.0
    for _ in range(max(1, samples // 2)):
        g1 = _random_word(rng, parabolic, 4)
        g2 = _random_word(rng, parabolic, 4)
        chi_worst = max(chi_worst, abs(chi(g1 @ g2) - chi(g1) * chi(g2)))

    # Divisibility of the modular defect by theta, generators then random
    # words; an element the domain guards refuse at some tau is skipped.
    def divisibility(record_id: str, elements: Sequence[GammaElement]) -> Outcome:
        worst, valid, skipped = 0.0, 0, 0
        for g in elements:
            for tau in MODULAR_TAUS:
                try:
                    worst = max(worst, divisibility_residual(g, tau))
                    valid += 1
                except DomainError:
                    skipped += 1
        return Outcome(record_id, worst if valid else math.inf, f"valid={valid} skipped={skipped}")

    words = [_random_word(rng, GAMMA_GENERATORS, 3) for _ in range(10)]
    return [
        # k_gamma at the identity is exactly 1.
        Outcome("K_GAMMA_IDENTITY", abs(k_gamma(GAMMA_IDENTITY, 1.3j) - 1.0),
                "scalar cocycle equals 1 at the identity element"),
        Outcome("ZETA_SQ_COCYCLE", cocycle_worst,
                "squared theta-null transformation matches zeta_sq * (c tau + d)"),
        Outcome("CHI_MULTIPLICATIVITY", chi_worst, "character of a product equals the product of characters"),
        divisibility("DIVISIBILITY_GENERATORS", (t2, v_elt)),
        divisibility("DIVISIBILITY_WORDS", words),
    ]
