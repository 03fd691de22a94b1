"""Registry-driven residual checks for the theta/kappa identity corpus.

Every displayed identity with free complex parameters is an entry in
``REGISTRY``: a recipe that, given the bindings dict and the half-nome u of
one sample, evaluates one or more (lhs, rhs) pairs literally.  Only the
worst sample of an identity becomes a :class:`ResidualReport`, with its
point and nome as a checked :class:`EvalPoint` and :class:`Nome`.

Sampling is deterministic: ``sample_points`` draws |u| uniformly from a
window (``U_ABS_RANGE`` = [0.05, 0.75] unless ``u_abs_range=`` says
otherwise, so |q| <= 0.5625), arguments uniformly, and |z|, |a|, |b|
log-uniformly from [0.5, 2], then rejects any draw that lands within
GUARD_TOL of a kappa pole orbit (+u**even) or a theta zero orbit (-u**odd)
relevant to the identity.  Identities built on the square roots
s = a**(1/2) and v = u**(1/2) derive them from the principal branch; the
SQRT entry checks both signs of s at every sample.

``suite_outcomes`` is the verify report's numeric suite: one record per identity.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import Callable, NamedTuple, Sequence

# kappa0 stays bound here, unused: perfbench/tracer.py patches identities.kappa0.
from appell_kit.modular import kappa0, kappa0_sweep  # noqa: F401
from appell_kit.numeric import (
    GUARD_TOL,
    MAX_TERMS,
    TERM_EPS,
    DomainError,
    EvalPoint,
    Nome,
    NonconvergenceError,
    Outcome,
    ResidualReport,
    annulus_point,
    dtheta_dz,
    guarded_sample,
    kappa,
    kappa_bar,
    near_power_orbit,
    qpochhammer,
    theta,
    vartheta0,
    vartheta1,
    worst_pair,
)

PairFn = Callable[[dict[str, complex], complex], list[tuple[complex, complex]]]
GuardFn = Callable[[dict[str, complex], complex], bool]

#: The window every identity samples |u| from, unless ``u_abs_range=`` replaces it.
U_ABS_RANGE = (0.05, 0.75)


class UnknownIdentityError(KeyError):
    """Raised for an identity_id with no registry entry."""


def near_kappa_pole(a: complex, u: complex) -> bool:
    """Whether a sits within GUARD_TOL of the kappa pole orbit q**Z = +u**even."""
    return near_power_orbit(a, u, sign=1, parity=0, tol=GUARD_TOL)


def near_theta_zero(z: complex, u: complex) -> bool:
    """Whether z sits within GUARD_TOL of the theta zero orbit -u**odd.

    The same orbit serves theta2(z, u) = theta(z, u**2), whose zeros are
    -u**(2k+1) as well."""
    return near_power_orbit(z, u, sign=-1, parity=1, tol=GUARD_TOL)


def _accept_all(bindings: dict[str, complex], u: complex) -> bool:
    return True


class DomainSpec(NamedTuple):
    """Sampling recipe for one identity: which symbols to draw, which derived
    square-root bindings to attach, and the guard predicate applied to
    candidate draws."""

    symbols: tuple[str, ...] = ()
    derived_sqrt: tuple[tuple[str, str], ...] = ()  # (new_name, source: symbol or "u")
    guard: GuardFn = _accept_all


class IdentityDef(NamedTuple):
    """One registry entry: identifier, human description, sampling domain,
    and the literal (lhs, rhs) pair evaluator."""

    identity_id: str
    description: str
    domain: DomainSpec
    pairs: PairFn


def _half_nome_series(sign: int, z: complex, u: complex) -> complex:
    """The one-sided expansion of kappa(-sign*u, z):
    sum_{n>=0} u**(n**2+2n) / (1 + sign*u**(2n+1)) * (z**-n + sign*z**(n+1)).

    sign=-1 gives kappa(u, z) (all minus signs), sign=+1 gives kappa(-u, z)
    (all plus signs).  Denominators stay away from 0 for |u| < 1, so only
    the usual geometric truncation applies."""
    eps = TERM_EPS
    total = 0.0 + 0.0j
    scale = 1.0
    for n in range(MAX_TERMS + 1):
        base = u ** (n * n + 2 * n)
        term = base / (1.0 + sign * u ** (2 * n + 1)) * (z ** (-n) + sign * z ** (n + 1))
        mag = abs(base) * max(abs(z) ** (-n), abs(z) ** (n + 1))
        if n >= 3 and mag < eps * scale:
            return total
        total += term
        scale = max(scale, mag)
    raise NonconvergenceError(
        f"half-nome series did not converge within {MAX_TERMS} terms"
    )


# ---------------------------------------------------------------------------
# Pair evaluators.  Each returns the literal (lhs, rhs) pairs of the printed
# identity at the bindings b and the half-nome u, the arguments its guard
# reads; q = u*u throughout.
# ---------------------------------------------------------------------------


def _pairs_def(b, u):
    a, z = b["a"], b["z"]
    return [(kappa(a, u * u * z, u), a * kappa(a, z, u) + theta(z, u))]


def _pairs_inv(b, u):
    a, z = b["a"], b["z"]
    return [(kappa(a, z, u), -kappa(1 / a, u * u / z, u) / a)]


def _pairs_def2(b, u):
    a, z = b["a"], b["z"]
    q = u * u
    lhs = kappa(q * a, z, u)
    return [
        (lhs, z * kappa(a, q * z, u) / u),
        (lhs, (a * z * kappa(a, z, u) + z * theta(z, u)) / u),
    ]


def _pairs_sym(b, u):
    a, z = b["a"], b["z"]
    return [(a * kappa_bar(a, z, u), -u * z * kappa_bar(-u * z, -a / u, u))]


def _pairs_sqrt(b, u):
    z, v, root = b["z"], b["v"], b["s"]
    d0, d1 = vartheta0(1j, v), vartheta1(1j * v * v, v)
    lhs = kappa_bar(root * root * z, 1 / z, u)  # a = s*s is one float for s and -s
    # At -s the argument is exactly -w: vartheta0 squares it, so its value
    # is the same, and vartheta1 is its exact negation.
    w = 1j * v * root * z
    c0, c1 = vartheta0(w, v) / d0, vartheta1(w, v) / d1
    pairs = []
    for s, c1_s in ((root, c1), (-root, -c1)):
        rhs = c0 * kappa_bar(s / v, v * s, u) + c1_s * kappa_bar(v * s, s / v, u)
        pairs.append((lhs, rhs))
    return pairs


def _pairs_addf(b, u):
    a, z, v = b["a"], b["z"], b["v"]
    lhs = theta(z * a, u) * theta(z / a, u)
    rhs = vartheta0(a, v) * vartheta0(z, v) + vartheta1(a, v) * vartheta1(z, v)
    return [(lhs, rhs)]


def _hadd_lhs(a, b, z, u):
    return theta(b * z, u) * kappa(a * b, z, u) - theta(z, u) * kappa(a, b * z, u) / b


def _pairs_hadd(b, u):
    a, bb, z = b["a"], b["b"], b["z"]
    rhs = theta(-u * bb, u) * theta(z / a, u) / theta(-a / u, u) * kappa(a * bb, -u, u)
    return [(_hadd_lhs(a, bb, z, u), rhs)]


def _pairs_sp1(b, u):
    a = b["a"]
    rhs = theta(1, u) * theta(-1, u) * theta(u, u) / (2 * theta(-a / u, u))
    return [(kappa(a, -u, u), rhs)]


def _pairs_hadd2(b, u):
    a, bb, z = b["a"], b["b"], b["z"]
    rhs = (
        theta(1, u)
        * theta(-1, u)
        * theta(u, u)
        * theta(-u * bb, u)
        * theta(z / a, u)
        / (2 * theta(-a / u, u) * theta(-a * bb / u, u))
    )
    return [(_hadd_lhs(a, bb, z, u), rhs)]


def _pairs_hadd3(b, u):
    a, z = b["a"], b["z"]
    lhs = kappa(a, z, u)
    azu = a * z / u
    th_azu = theta(azu, u)
    rhs = (u / a) * theta(z, u) / th_azu * kappa(u, azu, u) + (
        theta(1, u) * theta(u, u) * theta(-a, u) * theta(z / u, u)
    ) / (2 * theta(-a / u, u) * th_azu)
    return [(lhs, rhs)]


def _pairs_sp2(b, u):
    return [(kappa(-u, -u, u), 0.5 * theta(-1, u) * theta(u, u))]


def _pairs_sp3(b, u):
    return [(kappa(-1, -u, u), 0.5 * theta(1, u) * theta(-1, u))]


def _pairs_sp4(b, u):
    return [
        (kappa(-1, 1, u), 0.5 * theta(1, u)),
        (kappa(-1, -1, u), 0.5 * theta(-1, u)),
    ]


def _pairs_sp5(b, u):
    half = 0.5 * theta(u, u)
    return [(kappa(u, u, u), half), (kappa(-u, u, u), half)]


def _pairs_halfser_p(b, u):
    z = b["z"]
    return [(kappa(u, z, u), _half_nome_series(-1, z, u))]


def _pairs_halfser_m(b, u):
    z = b["z"]
    return [(kappa(-u, z, u), _half_nome_series(1, z, u))]


def _pairs_id4(b, u):
    bb = b["b"]
    lhs = 2 * kappa(u / bb, u * bb, u)
    rhs = theta(bb / u, u) + theta(1, u) * theta(bb, u) * theta(-u / bb, u) / theta(-bb, u)
    return [(lhs, rhs)]


def _pairs_id5sum(b, u):
    bb = b["b"]
    rhs = theta(u, u) * theta(bb / u, u) * theta(-bb / u, u) / (2 * theta(-bb, u))
    return [(kappa(u / bb, bb, u), rhs)]


def _pairs_id5prod(b, u):
    bb = b["b"]
    q = u * u
    rhs = (
        qpochhammer(q, q) ** 2
        * qpochhammer(-q, q) ** 2
        * qpochhammer(-bb, q)
        * qpochhammer(-q / bb, q)
        * qpochhammer(bb, q)
        * qpochhammer(q / bb, q)
    ) / (qpochhammer(u * bb, q) * qpochhammer(u / bb, q))
    return [(kappa(u / bb, bb, u), rhs)]


def _pairs_id55(b, u):
    a, z = b["a"], b["z"]
    lhs = theta(-z, u) * kappa(a, z, u) + theta(z, u) * kappa(-a, -z, u)
    rhs = (
        theta(u, u) ** 2
        * theta(1, u)
        * theta(-1, u)
        * theta(-z / a, u)
        / (2 * theta(u / a, u) * theta(-u / a, u))
    )
    return [(lhs, rhs)]


def _pairs_id6(b, u):
    bb = b["b"]
    lhs = theta(u, u) ** 2 * theta(-bb, u) * kappa(u / bb, -bb, u)
    rhs = (
        theta(u / bb, u) ** 2 * theta(-1, u) * kappa(u, -1, u)
        + theta(-u / bb, u) ** 2 * theta(1, u) * kappa(-u, 1, u)
    )
    return [(lhs, rhs)]


def _pairs_for1(b, u):
    lhs = theta(1, u) * kappa(u, -1, u) + theta(-1, u) * kappa(-u, 1, u)
    return [(lhs, 0.5 * theta(u, u) ** 3)]


def _pairs_for2(b, u):
    lhs = theta(u, u) ** 3 * kappa(-1, u, u)
    rhs = theta(-1, u) ** 3 * kappa(u, -1, u) + theta(1, u) ** 3 * kappa(-u, 1, u)
    return [(lhs, rhs)]


def _pairs_jac(b, u):
    lhs = dtheta_dz(-1 / u, u) / u
    rhs = 0.5 * theta(1, u) * theta(-1, u) * theta(u, u)
    return [(lhs, rhs)]


def _pairs_quasi(b, u):
    tau = cmath.log(u) / (1j * math.pi)
    x0 = (tau + 1.0) / 2.0
    # Only the tau-translates: kappa0 sees x through z = exp(2*pi*i*x) alone,
    # so an integer translate x + m moves z by rounding only, and n = 0 would
    # pair the base value with itself.
    shifts = (-2, -1, 1, 2)
    base, *lhs = kappa0_sweep([x0] + [x0 + n * tau for n in shifts], tau)
    return [(value, cmath.exp(1j * math.pi * n * (tau + 1.0)) * base) for value, n in zip(lhs, shifts)]


# ---------------------------------------------------------------------------
# Guards: reject sampled bindings that land too close to a kappa pole orbit
# or a theta-denominator zero of the specific identity.
# ---------------------------------------------------------------------------


def _guard_def(b, u):
    return not near_kappa_pole(b["a"], u)


def _guard_inv(b, u):
    return not near_kappa_pole(b["a"], u) and not near_kappa_pole(1 / b["a"], u)


def _guard_def2(b, u):
    return not near_kappa_pole(b["a"], u) and not near_kappa_pole(u * u * b["a"], u)


def _guard_sym(b, u):
    return not near_kappa_pole(b["a"], u) and not near_kappa_pole(-u * b["z"], u)


def _guard_sqrt(b, u):
    v = b["v"]
    for w in (b["s"] * b["s"] * b["z"], b["s"] / v, v * b["s"]):
        if near_power_orbit(w, u, sign=1, parity=0, tol=GUARD_TOL):
            return False
        if near_power_orbit(w, u, sign=-1, parity=0, tol=GUARD_TOL):
            return False
    return True


def _guard_hadd(b, u):
    a, bb = b["a"], b["b"]
    return (
        not near_kappa_pole(a, u)
        and not near_kappa_pole(a * bb, u)
        and not near_theta_zero(-a / u, u)
    )


def _guard_sp1(b, u):
    return not near_kappa_pole(b["a"], u) and not near_theta_zero(-b["a"] / u, u)


def _guard_hadd2(b, u):
    a, bb = b["a"], b["b"]
    return (
        not near_kappa_pole(a, u)
        and not near_kappa_pole(a * bb, u)
        and not near_theta_zero(-a / u, u)
        and not near_theta_zero(-a * bb / u, u)
    )


def _guard_hadd3(b, u):
    a, z = b["a"], b["z"]
    return (
        not near_kappa_pole(a, u)
        and not near_theta_zero(a * z / u, u)
        and not near_theta_zero(-a / u, u)
    )


def _guard_id4(b, u):
    return not near_kappa_pole(u / b["b"], u) and not near_theta_zero(-b["b"], u)


def _guard_id55(b, u):
    a = b["a"]
    return (
        not near_kappa_pole(a, u)
        and not near_kappa_pole(-a, u)
        and not near_theta_zero(u / a, u)
        and not near_theta_zero(-u / a, u)
    )


def _guard_id6(b, u):
    return not near_kappa_pole(u / b["b"], u)


_D = DomainSpec  # local shorthand for the table below

REGISTRY: dict[str, IdentityDef] = {
    d.identity_id: d
    for d in (
        IdentityDef(
            "DEF",
            "three-term defining relation kappa(a, q z) = a kappa(a, z) + theta(z)",
            _D(symbols=("a", "z"), guard=_guard_def),
            _pairs_def,
        ),
        IdentityDef(
            "INV",
            "inversion kappa(a, z) = -kappa(1/a, q/z) / a",
            _D(symbols=("a", "z"), guard=_guard_inv),
            _pairs_inv,
        ),
        IdentityDef(
            "DEF2",
            "parameter shift kappa(q a, z) = z kappa(a, q z)/u = (a z kappa(a,z) + z theta(z))/u",
            _D(symbols=("a", "z"), guard=_guard_def2),
            _pairs_def2,
        ),
        IdentityDef(
            "SYM",
            "symmetry a kappa_bar(a, z) = -u z kappa_bar(-u z, -a/u)",
            _D(symbols=("a", "z"), guard=_guard_sym),
            _pairs_sym,
        ),
        IdentityDef(
            "SQRT",
            "square-root expansion of kappa_bar(a z, 1/z) in vartheta0/vartheta1 "
            "coefficients, checked on both branches s and -s of a**(1/2)",
            _D(
                symbols=("a", "z"),
                derived_sqrt=(("s", "a"), ("v", "u")),
                guard=_guard_sqrt,
            ),
            _pairs_sqrt,
        ),
        IdentityDef(
            "ADDF",
            "addition formula theta(z a) theta(z/a) = vartheta0(a) vartheta0(z) + "
            "vartheta1(a) vartheta1(z)",
            _D(symbols=("a", "z"), derived_sqrt=(("v", "u"),)),
            _pairs_addf,
        ),
        IdentityDef(
            "HADD",
            "half addition: theta(b z) kappa(a b, z) - theta(z) kappa(a, b z)/b "
            "proportional to theta(z/a)",
            _D(symbols=("a", "b", "z"), guard=_guard_hadd),
            _pairs_hadd,
        ),
        IdentityDef(
            "SP1",
            "special value kappa(a, -u) = theta(1) theta(-1) theta(u) / (2 theta(-a/u))",
            _D(symbols=("a",), guard=_guard_sp1),
            _pairs_sp1,
        ),
        IdentityDef(
            "HADD2",
            "rank-2 addition formula: the HADD combination in fully factored theta form",
            _D(symbols=("a", "b", "z"), guard=_guard_hadd2),
            _pairs_hadd2,
        ),
        IdentityDef(
            "HADD3",
            "kappa(a, z) in terms of kappa(u, a z/u) plus an explicit theta quotient",
            _D(symbols=("a", "z"), guard=_guard_hadd3),
            _pairs_hadd3,
        ),
        IdentityDef(
            "SP2",
            "special value kappa(-u, -u) = theta(-1) theta(u) / 2",
            _D(),
            _pairs_sp2,
        ),
        IdentityDef(
            "SP3",
            "special value kappa(-1, -u) = theta(1) theta(-1) / 2",
            _D(),
            _pairs_sp3,
        ),
        IdentityDef(
            "SP4",
            "special values kappa(-1, 1) = theta(1)/2 and kappa(-1, -1) = theta(-1)/2",
            _D(),
            _pairs_sp4,
        ),
        IdentityDef(
            "SP5",
            "special values kappa(u, u) = kappa(-u, u) = theta(u)/2",
            _D(),
            _pairs_sp5,
        ),
        IdentityDef(
            "HALFSER_P",
            "one-sided series for kappa(u, z) with denominators 1 - u**(2n+1)",
            _D(symbols=("z",)),
            _pairs_halfser_p,
        ),
        IdentityDef(
            "HALFSER_M",
            "one-sided series for kappa(-u, z) with denominators 1 + u**(2n+1)",
            _D(symbols=("z",)),
            _pairs_halfser_m,
        ),
        IdentityDef(
            "ID4",
            "2 kappa(u/b, u b) = theta(b/u) + theta(1) theta(b) theta(-u/b) / theta(-b)",
            _D(symbols=("b",), guard=_guard_id4),
            _pairs_id4,
        ),
        IdentityDef(
            "ID5SUM",
            "kappa(u/b, b) = theta(u) theta(b/u) theta(-b/u) / (2 theta(-b))",
            _D(symbols=("b",), guard=_guard_id4),
            _pairs_id5sum,
        ),
        IdentityDef(
            "ID5PROD",
            "kappa(u/b, b) as a ratio of q-Pochhammer infinite products",
            _D(symbols=("b",), guard=_guard_id6),
            _pairs_id5prod,
        ),
        IdentityDef(
            "ID55",
            "theta(-z) kappa(a, z) + theta(z) kappa(-a, -z) in closed theta form",
            _D(symbols=("a", "z"), guard=_guard_id55),
            _pairs_id55,
        ),
        IdentityDef(
            "ID6",
            "theta(u)**2 theta(-b) kappa(u/b, -b) as a two-term theta/kappa combination",
            _D(symbols=("b",), guard=_guard_id6),
            _pairs_id6,
        ),
        IdentityDef(
            "FOR1",
            "theta(1) kappa(u, -1) + theta(-1) kappa(-u, 1) = theta(u)**3 / 2",
            _D(),
            _pairs_for1,
        ),
        IdentityDef(
            "FOR2",
            "theta(u)**3 kappa(-1, u) = theta(-1)**3 kappa(u, -1) + theta(1)**3 kappa(-u, 1)",
            _D(),
            _pairs_for2,
        ),
        IdentityDef(
            "JAC",
            "derivative value dtheta/dz at -1/u: u**-1 theta'(-1/u) = "
            "theta(1) theta(-1) theta(u) / 2",
            _D(),
            _pairs_jac,
        ),
        IdentityDef(
            "QUASI",
            "quasi-periodicity of kappa0 on the theta-zero translate "
            "x -> x + n tau, n in {-2, -1, 1, 2}",
            _D(),
            _pairs_quasi,
        ),
    )
}


def registry_ids() -> tuple[str, ...]:
    """All identity identifiers, sorted."""
    return tuple(sorted(REGISTRY))


def get_identity(identity_id: str) -> IdentityDef:
    try:
        return REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known: {', '.join(registry_ids())}"
        ) from None


def identity_residual(identity_id: str, point: EvalPoint, nome: Nome) -> ResidualReport:
    """Evaluate both sides of the named identity at (point, nome) and report
    the worst relative residual among its (lhs, rhs) pairs.

    A binding the identity draws or derives that the point lacks raises
    DomainError, and so does a point that fails the identity's guard, so
    that near-pole evaluations are never silently reported as residuals."""
    ident = get_identity(identity_id)
    bindings, u = point.bindings, nome.u
    domain = ident.domain
    for name in (*domain.symbols, *(new_name for new_name, _ in domain.derived_sqrt)):
        if name not in bindings:
            raise DomainError(f"missing binding {name!r}")
    if not domain.guard(bindings, u):
        raise DomainError(
            f"point {bindings} violates the sampling guard of {identity_id}"
        )
    return ResidualReport.from_pairs(ident.identity_id, point, nome, ident.pairs(bindings, u))


def sample_points(
    domain: DomainSpec,
    count: int,
    seed: int = 0,
    *,
    u_abs_range: tuple[float, float] = U_ABS_RANGE,
) -> list[tuple[dict[str, complex], complex]]:
    """Deterministic guarded samples ``(bindings, u)`` with |u| drawn from
    ``u_abs_range``: the same arguments always yield the same list.  Rejected
    draws advance the stream, and ``numeric.guarded_sample`` caps how many
    are drawn."""
    rng = random.Random(seed)
    lo, hi = u_abs_range
    symbols, derived, guard = domain.symbols, domain.derived_sqrt, domain.guard

    def draw() -> tuple[dict[str, complex], complex]:
        u = cmath.rect(lo + (hi - lo) * rng.random(), 2.0 * math.pi * rng.random())  # rng.uniform
        bindings = {}
        for name in symbols:  # a loop: a comprehension's frame costs more here
            bindings[name] = annulus_point(rng)
        for new_name, source in derived:
            bindings[new_name] = cmath.sqrt(u if source == "u" else bindings[source])
        if not 0.0 < abs(u) < 1.0:
            EvalPoint(bindings), Nome(u)  # raise what the checked path raised here
        return bindings, u

    return guarded_sample(draw, lambda d: guard(*d), count)


def max_residual_over_samples(
    identity_id: str,
    count: int = 100,
    seed: int = 0,
    *,
    u_abs_range: tuple[float, float] = U_ABS_RANGE,
) -> ResidualReport:
    """Worst-case ResidualReport for the identity over deterministic samples
    with |u| drawn from ``u_abs_range``.  ``sample_points`` has already
    guarded each sample, so it is not checked again.

    Only the worst sample becomes a ResidualReport; samples are compared on
    ``worst_pair``'s ``rel_residual`` with a strict ``>``, so the result
    equals the worst of the per-sample reports."""
    ident = get_identity(identity_id)
    worst = None
    for bindings, u in sample_points(ident.domain, count, seed, u_abs_range=u_abs_range):
        pair = worst_pair(ident.pairs(bindings, u))
        if worst is None or pair[4] > worst[2][4]:
            worst = (bindings, u, pair)
    assert worst is not None
    bindings, u, pair = worst
    return ResidualReport(ident.identity_id, EvalPoint(bindings), Nome(u), *pair)


def suite_outcomes(ids: Sequence[str], samples: int, seed: int) -> list[Outcome]:
    """The numeric records among ``ids``, in the order given."""
    return [
        Outcome(identity_id, max_residual_over_samples(identity_id, samples, seed).rel_residual,
                REGISTRY[identity_id].description)
        for identity_id in ids
    ]


def verify_registry(count: int = 100, seed: int = 0) -> dict[str, ResidualReport]:
    """Worst residual per registry identity, keyed by identifier (sorted)."""
    return {
        identity_id: max_residual_over_samples(identity_id, count, seed)
        for identity_id in registry_ids()
    }
