"""Factors of automorphy on C* / q**Z and explicit gauge equivalences.

A rank-r factor of automorphy is a holomorphic matrix A(z) on C*; its
sections are the vector functions s with s(q z) = A(z) s(z).  The classical
example is the scalar factor 1/(u z) whose one-dimensional section space is
spanned by theta.  The rank-2 factors built here,

    F_a  = [[a, 1], [0, 1/(u z)]]      sections contain (kappa(a, z), theta(z))
    F'_a = [[1, 1], [0, a/(u z)]]
    P    = [[0, -1/(u z)], [1, 0]]     a pushforward-type factor

are linked by explicit meromorphic-looking but actually holomorphic gauge
matrices whose entries are kappa/theta combinations: B conjugates F'_a into
F_a, and C conjugates P into F'_1.  Both have constant determinant, and the
constants have independent closed forms in theta null values, which the
checks here compare against the kappa special-value forms.

The mu-expansion utilities express a b-translated section of the
tensor(F_{ab}, L) factor in the explicit three-element section basis
(v0, v1, v-1), with coefficients that are pure theta quotients.

``suite_outcomes`` is the verify report's bundle suite: these checks at two
nomes.  At each nome it builds every series its section, gauge and
determinant records read once, as one sweep over the z-points and their
q-translates together: theta at z, -z, z/a and the two theta2 arguments,
kappa(a, z), kappa(1/a, z), kappa(-a, -z) and kappa(-1, -z).  The public
sections and gauge matrices are built as usual, and each one's evaluator
is swapped for a lookup of those values by point, so every record runs its
arithmetic unchanged on values bit for bit the scalar evaluators'.  The
Bezout record sweeps its own w-points.  MU_EXPANSION sweeps theta(z) and
theta(-z) over its prefix of the z-points once per nome (``mu_thetas``),
and takes each (a, b) pair's coefficients from ``mu_lambda`` and ``mu_nu``.
"""

from __future__ import annotations

import math
import random
from operator import mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from appell_kit.numeric import (
    GUARD_TOL,
    DomainError,
    EvalPoint,
    Nome,
    Outcome,
    ResidualReport,
    annulus_point,
    guarded_sample,
    kappa,
    kappa_sweep,
    near_power_orbit,
    theta,
    theta2,
    theta_sweep,
)

Matrix = tuple[tuple[complex, ...], ...]
MatrixFn = Callable[[complex], Matrix]
VectorFn = Callable[[complex], tuple[complex, ...]]


class FactorOfAutomorphy(NamedTuple):
    """Matrix factor A(z); sections satisfy s(q z) = A(z) s(z)."""

    rank: int
    label: str
    nome: Nome
    evaluator: MatrixFn


class SectionCandidate(NamedTuple):
    """A vector function to be tested against a factor's section equation."""

    rank: int
    label: str
    evaluator: VectorFn


class GaugeMatrix(NamedTuple):
    """Holomorphic G(z) with G(q z) A_source(z) = A_target(z) G(z) and
    constant determinant det G = -constant."""

    label: str
    nome: Nome
    source: FactorOfAutomorphy
    target: FactorOfAutomorphy
    constant: complex
    evaluator: MatrixFn

    @property
    def det_expected(self) -> complex:
        return -self.constant


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def _mat_vec(a: Matrix, v: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def _mat_det(a: Matrix) -> complex:
    if len(a) == 1:
        return a[0][0]
    if len(a) == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    raise DomainError(f"determinant implemented for ranks 1 and 2, got {len(a)}")


# ---------------------------------------------------------------------------
# The standard factors.
# ---------------------------------------------------------------------------


def make_L(u: complex) -> FactorOfAutomorphy:
    """Scalar factor 1/(u z); theta is a section."""
    nome = Nome(u)

    def ev(z: complex) -> Matrix:
        return ((1.0 / (u * z),),)

    return FactorOfAutomorphy(1, "L", nome, ev)


def make_Fa(a: complex, u: complex) -> FactorOfAutomorphy:
    """Upper-triangular factor [[a, 1], [0, 1/(u z)]]; the section equation of
    its first row is the three-term relation defining kappa."""
    nome = Nome(u)

    def ev(z: complex) -> Matrix:
        return ((complex(a), 1.0 + 0.0j), (0.0j, 1.0 / (u * z)))

    return FactorOfAutomorphy(2, f"F[{a}]", nome, ev)


def make_Fpa(a: complex, u: complex) -> FactorOfAutomorphy:
    """Companion factor [[1, 1], [0, a/(u z)]], gauge-equivalent to F_a."""
    nome = Nome(u)

    def ev(z: complex) -> Matrix:
        return ((1.0 + 0.0j, 1.0 + 0.0j), (0.0j, complex(a) / (u * z)))

    return FactorOfAutomorphy(2, f"F'[{a}]", nome, ev)


def make_push(u: complex) -> FactorOfAutomorphy:
    """Off-diagonal factor [[0, -1/(u z)], [1, 0]] (a rank-2 pushforward of a
    line factor along the degree-2 isogeny); its sections are built from
    theta2 = theta at the squared nome."""
    nome = Nome(u)

    def ev(z: complex) -> Matrix:
        return ((0.0j, -1.0 / (u * z)), (1.0 + 0.0j, 0.0j))

    return FactorOfAutomorphy(2, "P", nome, ev)


def tensor(factor: FactorOfAutomorphy, scalar: FactorOfAutomorphy) -> FactorOfAutomorphy:
    """Tensor a factor by a rank-1 factor: entrywise multiplication of A(z)
    by the scalar value."""
    if scalar.rank != 1:
        raise DomainError(f"second operand must have rank 1, got {scalar.rank}")
    if factor.nome != scalar.nome:
        raise DomainError("tensor operands must share a nome")

    def ev(z: complex) -> Matrix:
        s = scalar.evaluator(z)[0][0]
        return tuple(tuple(s * entry for entry in row) for row in factor.evaluator(z))

    return FactorOfAutomorphy(
        factor.rank, f"{factor.label}*{scalar.label}", factor.nome, ev
    )


# ---------------------------------------------------------------------------
# Sections.
# ---------------------------------------------------------------------------


def theta_section(u: complex) -> SectionCandidate:
    return SectionCandidate(1, "theta", lambda z: (theta(z, u),))


def kappa_theta_section(a: complex, u: complex) -> SectionCandidate:
    """(kappa(a, z), theta(z)): a section of F_a by the defining relation."""

    def ev(z: complex) -> tuple[complex, ...]:
        return (kappa(a, z, u), theta(z, u))

    return SectionCandidate(2, f"(kappa[{a}], theta)", ev)


def push_section(u: complex) -> SectionCandidate:
    """(-theta2(-u z), -theta2(-z/u)): a section of the pushforward factor P."""

    def ev(z: complex) -> tuple[complex, ...]:
        return (-theta2(-u * z, u), -theta2(-z / u, u))

    return SectionCandidate(2, "push-theta2", ev)


def basis_sections(
    a: complex, u: complex
) -> tuple[SectionCandidate, SectionCandidate, SectionCandidate]:
    """The three-element section basis (v0, v1, v-1) of tensor(F_a, L):

        v0  = (theta(z/a), 0)
        v1  = (theta(z) kappa(a, z), theta(z)**2)
        v-1 = (theta(-z) kappa(-a, -z), -theta(-z)**2)
    """

    def v0(z: complex) -> tuple[complex, ...]:
        return (theta(z / a, u), 0.0j)

    def v1(z: complex) -> tuple[complex, ...]:
        return _v1_entries(theta(z, u), kappa(a, z, u))

    def vm1(z: complex) -> tuple[complex, ...]:
        return _vm1_entries(theta(-z, u), kappa(-a, -z, u))

    return (
        SectionCandidate(2, f"v0[{a}]", v0),
        SectionCandidate(2, f"v1[{a}]", v1),
        SectionCandidate(2, f"v-1[{a}]", vm1),
    )


def _v1_entries(th: complex, k: complex) -> tuple[complex, ...]:
    """v1 from th = theta(z) and k = kappa(a, z)."""
    return (th * k, th * th)


def _vm1_entries(th: complex, k: complex) -> tuple[complex, ...]:
    """v-1 from th = theta(-z) and k = kappa(-a, -z)."""
    return (th * k, -th * th)


def check_section(
    factor: FactorOfAutomorphy,
    section: SectionCandidate,
    points: Sequence[complex],
) -> float:
    """Worst relative residual of s(q z) - A(z) s(z) over the points."""
    if factor.rank != section.rank:
        raise DomainError(
            f"rank mismatch: factor {factor.rank}, section {section.rank}"
        )
    q = factor.nome.q
    worst = 0.0
    for z in points:
        shifted = section.evaluator(q * z)
        mapped = _mat_vec(factor.evaluator(z), section.evaluator(z))
        scale = max(1.0, *map(abs, shifted), *map(abs, mapped))
        worst = max(worst, max(map(abs, map(sub, shifted, mapped))) / scale)
    return worst


# ---------------------------------------------------------------------------
# Determinant constants c_a and c, each with two independent closed forms.
# ---------------------------------------------------------------------------


def c_a_theta(a: complex, u: complex) -> complex:
    """c_a = theta(1)**2 theta(-1)**2 theta(u)**2 /
    (4 a theta(-a/u) theta(-u a)), the theta-null form."""
    num = theta(1, u) ** 2 * theta(-1, u) ** 2 * theta(u, u) ** 2
    return num / (4 * a * theta(-a / u, u) * theta(-u * a, u))


def c_a_kappa(a: complex, u: complex) -> complex:
    """c_a = kappa(a, -u) kappa(1/a, -u) / a, the kappa special-value form."""
    return kappa(a, -u, u) * kappa(1 / a, -u, u) / a


def lambda_constant(u: complex) -> complex:
    """lambda = theta2(1) theta2(q) / theta(u), the normalizing constant of
    the gauge from the pushforward factor."""
    q = u * u
    return theta2(1, u) * theta2(q, u) / theta(u, u)


def c_constant_theta(u: complex) -> complex:
    """c = lambda theta(1) theta(-1)."""
    return lambda_constant(u) * theta(1, u) * theta(-1, u)


def c_constant_kappa(u: complex) -> complex:
    """c = -2 lambda kappa(-1, -1/u) (equivalently +2 lambda kappa(-1, -u))."""
    return -2.0 * lambda_constant(u) * kappa(-1, -1 / u, u)


# ---------------------------------------------------------------------------
# The two gauge matrices.
# ---------------------------------------------------------------------------


def build_B(a: complex, u: complex) -> GaugeMatrix:
    """Gauge matrix from F'_a to F_a:

        B = [[kappa(a,z), (c_a - kappa(a,z) kappa(1/a,z)/a) / theta(z)],
             [theta(z),   -kappa(1/a,z)/a]]

    with det B = -c_a identically.  The (1,2) entry is holomorphic: its
    numerator vanishes wherever theta does."""
    if near_power_orbit(a, u, sign=1, parity=0, tol=1e-6):
        raise DomainError(f"parameter a = {a} too close to the pole orbit q**Z")
    ca = c_a_theta(a, u)

    def ev(z: complex) -> Matrix:
        return _b_matrix(a, ca, kappa(a, z, u), kappa(1 / a, z, u), theta(z, u))

    return GaugeMatrix(
        f"B[{a}]", Nome(u), make_Fpa(a, u), make_Fa(a, u), ca, ev
    )


def build_C(u: complex) -> GaugeMatrix:
    """Gauge matrix from the pushforward factor P to F'_1:

        C = [[lambda (theta(1)theta(-1)/2 - kappa(-1,-z)) / theta2(-u z),
              lambda (theta(1)theta(-1)/2 + kappa(-1,-z)) / theta2(-z/u)],
             [theta2(-z/u), -theta2(-u z)]]

    with det C = -c identically; both ratio entries are holomorphic."""
    lam, half, c = _c_constants(u)

    def ev(z: complex) -> Matrix:
        return _c_matrix(lam, half, kappa(-1, -z, u), theta2(-u * z, u), theta2(-z / u, u))

    return GaugeMatrix("C", Nome(u), make_push(u), make_Fpa(1.0, u), c, ev)


def _b_matrix(a: complex, ca: complex, ka: complex, ki: complex, th: complex) -> Matrix:
    """B(z) from ka = kappa(a, z), ki = kappa(1/a, z) and th = theta(z)."""
    return ((ka, (ca - ka * ki / a) / th), (th, -ki / a))


def _c_constants(u: complex) -> tuple[complex, complex, complex]:
    """The per-nome constants (lambda, theta(1) theta(-1) / 2, c) of the
    gauge matrix C and the Bezout pair."""
    return lambda_constant(u), 0.5 * theta(1, u) * theta(-1, u), c_constant_theta(u)


def _c_matrix(lam: complex, half: complex, k: complex, t_up: complex, t_dn: complex) -> Matrix:
    """C(z) from k = kappa(-1, -z), t_up = theta2(-u z) and t_dn = theta2(-z/u)."""
    return ((lam * (half - k) / t_up, lam * (half + k) / t_dn), (t_dn, -t_up))


def gauge_residual(gauge: GaugeMatrix, points: Sequence[complex]) -> float:
    """Worst relative residual of the intertwining equation
    G(q z) A_source(z) = A_target(z) G(z) over the points."""
    q = gauge.nome.q
    worst = 0.0
    for z in points:
        left = _mat_mul(gauge.evaluator(q * z), gauge.source.evaluator(z))
        right = _mat_mul(gauge.target.evaluator(z), gauge.evaluator(z))
        scale = max(
            1.0,
            *(abs(e) for row in left for e in row),
            *(abs(e) for row in right for e in row),
        )
        diff = max(
            abs(left[i][j] - right[i][j])
            for i in range(gauge.source.rank)
            for j in range(gauge.source.rank)
        )
        worst = max(worst, diff / scale)
    return worst


def determinant_spread(gauge: GaugeMatrix, points: Sequence[complex]) -> float:
    """Worst relative deviation of det G(z) from its expected constant."""
    expected = gauge.det_expected
    scale = max(1.0, abs(expected))
    return max(abs(_mat_det(gauge.evaluator(z)) - expected) for z in points) / scale


# ---------------------------------------------------------------------------
# Bezout pair for the two squared-nome theta generators.
# ---------------------------------------------------------------------------


def bezout_pair(
    u: complex,
) -> tuple[Callable[[complex], complex], Callable[[complex], complex]]:
    """Holomorphic (phi1, phi2) with

        phi1(w) theta2(w) - phi2(w) theta2(q w) = 1   for all w in C*.

    Both are rescaled entries of the gauge matrix C evaluated at z = -u w;
    the theta2 denominators cancel against zeros of the numerators."""
    lam, half, c = _c_constants(u)
    q = u * u

    def phi1(w: complex) -> complex:
        return lam * (half + kappa(-1, u * w, u)) / (c * theta2(w, u))

    def phi2(w: complex) -> complex:
        return -lam * (half - kappa(-1, u * w, u)) / (c * theta2(q * w, u))

    return phi1, phi2


def bezout_residual(u: complex, ws: Sequence[complex]) -> float:
    """Worst |phi1(w) theta2(w) - phi2(w) theta2(q w) - 1| over the points:
    the expression of ``bezout_pair`` with its constants computed once per
    call, and kappa(-1, u w), theta2(w) and theta2(q w) one sweep each
    (theta2 is theta at the nome u**2)."""
    lam, half, c = _c_constants(u)
    q = u * u
    columns = zip(
        kappa_sweep(-1, [u * w for w in ws], u),
        theta_sweep(ws, q),
        theta_sweep([q * w for w in ws], q),
    )
    worst = []
    for k, t, tq in columns:
        phi1 = lam * (half + k) / (c * t)
        phi2 = -lam * (half - k) / (c * tq)
        worst.append(abs(phi1 * t - phi2 * tq - 1.0))
    return max(worst, default=0.0)


# ---------------------------------------------------------------------------
# mu-expansion: a b-translated section in the (v0, v1, v-1) basis.
# ---------------------------------------------------------------------------


def mu_lambda(b: complex, u: complex) -> complex:
    """Coefficient lambda_b = theta(u/b) theta(u b) / theta(u)**2."""
    return theta(u / b, u) * theta(u * b, u) / theta(u, u) ** 2


def mu_nu(a: complex, b: complex, u: complex) -> complex:
    """Coefficient nu_{a,b} = theta(1) theta(u b) theta(-u b) theta(-u/b)
    theta(b) theta(a b) / (2 theta(u) theta(-u/a) theta(a b/u) theta(-a b**2))."""
    num = (
        theta(1, u)
        * theta(u * b, u)
        * theta(-u * b, u)
        * theta(-u / b, u)
        * theta(b, u)
        * theta(a * b, u)
    )
    den = (
        2.0
        * theta(u, u)
        * theta(-u / a, u)
        * theta(a * b / u, u)
        * theta(-a * b * b, u)
    )
    return num / den


def mu_sample_ok(a: complex, b: complex, u: complex) -> bool:
    """Guard for the mu-expansion: the kappa parameters a, ab, -ab must stay
    off the pole orbit +u**even, and the theta arguments -u/a, ab/u, -ab/u,
    -ab**2 off the zero orbit -u**odd."""
    for w in (a, a * b, -a * b):
        if near_power_orbit(w, u, sign=1, parity=0, tol=GUARD_TOL):
            return False
    for w in (-u / a, a * b / u, -a * b / u, -a * b * b):
        if near_power_orbit(w, u, sign=-1, parity=1, tol=GUARD_TOL):
            return False
    return True


def mu_thetas(u: complex, zs: Sequence[complex]) -> list[tuple[complex, complex]]:
    """(theta(z), theta(-z)) at each z: the part of the mu-expansion basis
    that depends on neither a nor b."""
    return list(zip(theta_sweep(zs, u), theta_sweep([-z for z in zs], u)))


def mu_expansion_residual(
    a: complex,
    b: complex,
    u: complex,
    zs: Sequence[complex],
    thetas: Sequence[tuple[complex, complex]] | None = None,
) -> ResidualReport:
    """Check, componentwise at each z, that the b-translated section

        w(z) = (theta(z/b) kappa(a, b z)/b,  theta(z/b) theta(b z))

    of tensor(F_{ab}, L) expands as

        w = lambda_b v1 - lambda_{-b} v-1 + (nu_{a,b} - nu_{a,-b}) v0

    in the section basis (v0, v1, v-1) of ``basis_sections(a b, u)``,
    evaluated term by term as those sections do.  ``thetas`` is
    ``mu_thetas(u, zs)``, computed here when not given, so a caller that
    checks many (a, b) pairs at one nome over the same points computes it
    once.  Each of the six series is one sweep over the points."""
    if not mu_sample_ok(a, b, u):
        raise DomainError(
            f"(a, b) = ({a}, {b}) violates the mu-expansion sampling guard"
        )
    if thetas is None:
        thetas = mu_thetas(u, zs)
    lam_p = mu_lambda(b, u)
    lam_m = mu_lambda(-b, u)
    nu_diff = mu_nu(a, b, u) - mu_nu(a, -b, u)
    ab = a * b
    bzs = [b * z for z in zs]
    columns = zip(
        thetas,
        theta_sweep([z / b for z in zs], u),
        kappa_sweep(a, bzs, u),
        theta_sweep(bzs, u),
        theta_sweep([z / ab for z in zs], u),
        kappa_sweep(ab, zs, u),
        kappa_sweep(-ab, [-z for z in zs], u),
    )
    pairs: list[tuple[complex, complex]] = []
    for (th, th_m), th_b, k_b, th_bz, x0, k_ab, k_mab in columns:
        # w = (th_b k_b / b, th_b th_bz) against lam_p v1 - lam_m v-1 + nu_diff v0,
        # where v0 = (x0, 0), v1 = (th k_ab, th**2), v-1 = (th_m k_mab, -th_m**2).
        pairs.append(
            (th_b * k_b / b, lam_p * (th * k_ab) - lam_m * (th_m * k_mab) + nu_diff * x0)
        )
        pairs.append(
            (th_b * th_bz, lam_p * (th * th) - lam_m * (-th_m * th_m) + nu_diff * 0.0j)
        )
    return ResidualReport.from_pairs(
        "MU_EXPANSION", EvalPoint({"a": a, "b": b}), Nome(u), pairs
    )


def sample_z_points(
    u: complex,
    count: int,
    seed: int = 0,
    radius_range: tuple[float, float] = (0.5, 2.0),
) -> list[complex]:
    """Deterministic annulus samples kept clear of the orbits +-u**odd, where
    theta(z) and the theta2 gauge denominators vanish."""
    rng = random.Random(seed)
    log_lo, log_hi = map(math.log, radius_range)
    return guarded_sample(
        lambda: annulus_point(rng, log_lo, log_hi),
        lambda z: not near_power_orbit(z, u, sign=-1, parity=1, tol=GUARD_TOL)
        and not near_power_orbit(z, u, sign=1, parity=1, tol=GUARD_TOL),
        count,
    )


# ---------------------------------------------------------------------------
# The bundle verify suite.
# ---------------------------------------------------------------------------

#: Nome values swept by the bundle suite; one real, one complex.
BUNDLE_NOMES = (0.2 + 0.0j, 0.4 + 0.1j)

#: MU_EXPANSION checks each (a, b) pair on this many of the suite's z-points,
#: a prefix of the same list, so the record's cost grows linearly in samples.
MU_Z_POINTS = 50

#: Each bundle record and the law it checks, its report detail.
RECORD_LAWS = {
    "SECTION_THETA": "theta(q z) = theta(z) / (u z)",
    "SECTION_PUSH": "(-theta2(-u z), -theta2(-z/u)) is a section of P = [[0, -1/(u z)], [1, 0]]",
    "SECTION_KAPPA_THETA": "(kappa(a, z), theta(z)) is a section of F_a = [[a, 1], [0, 1/(u z)]]",
    "SECTION_BASIS": "v0, v1 and v-1 are sections of tensor(F_a, L)",
    "GAUGE_B_CONJ": "B(q z) F'_a(z) = F_a(z) B(z)",
    "DET_B_SPREAD": "det B(z) = -c_a",
    "CONST_CA_CROSS": "theta(1)**2 theta(-1)**2 theta(u)**2 / (4 a theta(-a/u) theta(-u a)) "
                      "= kappa(a, -u) kappa(1/a, -u) / a",
    "GAUGE_C_CONJ": "C(q z) P(z) = F'_1(z) C(z)",
    "DET_C_SPREAD": "det C(z) = -c",
    "CONST_C_CROSS": "c = lambda theta(1) theta(-1) = -2 lambda kappa(-1, -1/u)",
    "BEZOUT_PAIR": "phi1(w) theta2(w) - phi2(w) theta2(q w) = 1",
    "MU_EXPANSION": "w = lambda_b v1 - lambda_{-b} v-1 + (nu_{a,b} - nu_{a,-b}) v0",
}
RECORD_IDS = tuple(RECORD_LAWS)


def _lookup(points: Sequence[complex], values: Iterable) -> Callable:
    """An evaluator that returns the value paired with each point."""
    return dict(zip(points, values)).__getitem__


def suite_outcomes(samples: int, seed: int) -> list[Outcome]:
    """Every bundle record, sorted by id: each one's worst residual over
    ``BUNDLE_NOMES``, on max(8, samples // 10) z-points per nome.

    The sections and gauge matrices are the public ones with each evaluator
    swapped for a lookup in the nome's sweeps over the z-points and their
    q-translates, the points ``check_section`` and ``gauge_residual``
    evaluate at; ``determinant_spread`` reads the matrices ``gauge_residual``
    read."""
    rng = random.Random(seed)
    z_count = max(8, samples // 10)
    worst = dict.fromkeys(RECORD_IDS, 0.0)

    def bump(key: str, value: float) -> None:
        worst[key] = max(worst[key], value)

    for u in BUNDLE_NOMES:
        q = u * u
        zs = sample_z_points(u, z_count, seed)
        points = zs + [q * z for z in zs]
        negated = [-z for z in points]
        th = theta_sweep(points, u)
        th_neg = theta_sweep(negated, u)
        # theta2(x, u) is theta(x, u * u).
        t_up = theta_sweep([-u * z for z in points], q)
        t_dn = theta_sweep([-z / u for z in points], q)
        section = theta_section(u)._replace(evaluator=_lookup(points, ((t,) for t in th)))
        bump("SECTION_THETA", check_section(make_L(u), section, zs))
        push = ((-x, -y) for x, y in zip(t_up, t_dn))
        section = push_section(u)._replace(evaluator=_lookup(points, push))
        bump("SECTION_PUSH", check_section(make_push(u), section, zs))
        a_values = guarded_sample(lambda: annulus_point(rng),
                                  lambda a: not near_power_orbit(a, u, sign=1, parity=0, tol=GUARD_TOL), 2)
        for a in a_values:
            ka = kappa_sweep(a, points, u)
            ki = kappa_sweep(1 / a, points, u)
            section = kappa_theta_section(a, u)._replace(evaluator=_lookup(points, zip(ka, th)))
            bump("SECTION_KAPPA_THETA", check_section(make_Fa(a, u), section, zs))
            factor = tensor(make_Fa(a, u), make_L(u))
            basis_values = (
                ((t, 0.0j) for t in theta_sweep([z / a for z in points], u)),
                map(_v1_entries, th, ka),
                map(_vm1_entries, th_neg, kappa_sweep(-a, negated, u)),
            )
            for section, values in zip(basis_sections(a, u), basis_values):
                section = section._replace(evaluator=_lookup(points, values))
                bump("SECTION_BASIS", check_section(factor, section, zs))
            gauge_b = build_B(a, u)
            ca = gauge_b.constant  # c_a_theta(a, u)
            matrices = (_b_matrix(a, ca, *kernel) for kernel in zip(ka, ki, th))
            gauge_b = gauge_b._replace(evaluator=_lookup(points, matrices))
            bump("GAUGE_B_CONJ", gauge_residual(gauge_b, zs))
            bump("DET_B_SPREAD", determinant_spread(gauge_b, zs))
            bump("CONST_CA_CROSS", abs(ca - c_a_kappa(a, u)) / max(1.0, abs(ca)))
        lam, half, _ = _c_constants(u)
        k_neg = kappa_sweep(-1, negated, u)
        matrices = (_c_matrix(lam, half, *kernel) for kernel in zip(k_neg, t_up, t_dn))
        gauge_c = build_C(u)._replace(evaluator=_lookup(points, matrices))
        bump("GAUGE_C_CONJ", gauge_residual(gauge_c, zs))
        bump("DET_C_SPREAD", determinant_spread(gauge_c, zs))
        c = gauge_c.constant  # c_constant_theta(u)
        bump("CONST_C_CROSS", abs(c - c_constant_kappa(u)) / max(1.0, abs(c)))
        ws = sample_z_points(u, samples, seed + 1, radius_range=(0.3, 3.0))
        bump("BEZOUT_PAIR", bezout_residual(u, ws))
        mu_pairs = guarded_sample(lambda: (annulus_point(rng), annulus_point(rng)),
                                  lambda ab: mu_sample_ok(*ab, u), max(4, samples // 20))
        mu_zs = zs[:MU_Z_POINTS]
        thetas = mu_thetas(u, mu_zs)
        for a, b in mu_pairs:
            bump("MU_EXPANSION", mu_expansion_residual(a, b, u, mu_zs, thetas).rel_residual)
    return [Outcome(key, value, RECORD_LAWS[key]) for key, value in sorted(worst.items())]
