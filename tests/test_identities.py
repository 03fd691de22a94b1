"""Registry tests: every identity passes its sampled residual check, the
sampling is deterministic and guarded, and the numeric backend agrees with
the exact-series backend where both apply."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from appell_kit import identities
from appell_kit.identities import (
    GUARD_TOL,
    DomainSpec,
    IdentityDef,
    REGISTRY,
    U_ABS_RANGE,
    UnknownIdentityError,
    _pairs_sqrt,
    identity_residual,
    max_residual_over_samples,
    near_kappa_pole,
    near_theta_zero,
    registry_ids,
    sample_points,
    verify_registry,
)
from appell_kit.modular import kappa0
from appell_kit.numeric import (
    DomainError,
    EvalPoint,
    Nome,
    NonReachableGuardError,
    ResidualReport,
    guarded_sample,
    kappa,
    kappa_bar,
    near_power_orbit,
    theta,
    vartheta0,
    vartheta1,
)
from appell_kit.qexact import for1_sides

EXPECTED_IDS = {
    "ADDF", "DEF", "DEF2", "FOR1", "FOR2", "HADD", "HADD2", "HADD3",
    "HALFSER_M", "HALFSER_P", "ID4", "ID55", "ID5PROD", "ID5SUM", "ID6",
    "INV", "JAC", "QUASI", "SP1", "SP2", "SP3", "SP4", "SP5", "SQRT", "SYM",
}


def test_registry_inventory():
    assert set(registry_ids()) == EXPECTED_IDS
    assert len(REGISTRY) == 25
    for identity_id in registry_ids():
        assert REGISTRY[identity_id].description


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_identity_worst_residual(identity_id):
    report = max_residual_over_samples(identity_id, count=30, seed=0)
    assert report.rel_residual < 1e-9, (
        f"{identity_id} worst residual {report.rel_residual:.3e} at "
        f"{dict(report.point.bindings)}, u = {report.nome.u}"
    )


def test_unknown_identity():
    with pytest.raises(UnknownIdentityError):
        identity_residual("NOPE", EvalPoint({}), Nome(0.3))
    with pytest.raises(UnknownIdentityError):
        max_residual_over_samples("NOPE")


def test_sampling_determinism():
    domain = REGISTRY["HADD"].domain
    first = sample_points(domain, 12, seed=7)
    second = sample_points(domain, 12, seed=7)
    assert [(sorted(b.items()), u) for b, u in first] == [(sorted(b.items()), u) for b, u in second]
    third = sample_points(domain, 12, seed=8)
    assert [u for _, u in first] != [u for _, u in third]


def test_sampling_respects_guard_and_range():
    domain = REGISTRY["ID55"].domain
    for bindings, u in sample_points(domain, 40, seed=3):
        assert domain.guard(bindings, u)
        assert 0.05 <= abs(u) <= 0.75
        for name in domain.symbols:
            assert 0.5 <= abs(bindings[name]) <= 2.0


def test_guard_violation_raises():
    with pytest.raises(DomainError):
        identity_residual("DEF", EvalPoint({"a": 1.0 + 0j, "z": 1.2}), Nome(0.3))


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_missing_binding_is_one_domain_error(identity_id):
    """Dropping any one binding the identity draws or derives is the same
    DomainError naming it, guarded identity or not, before the guard runs."""
    domain = REGISTRY[identity_id].domain
    bindings, u = sample_points(domain, 1, seed=0)[0]
    names = [*domain.symbols, *(new_name for new_name, _ in domain.derived_sqrt)]
    assert sorted(names) == sorted(bindings)
    for name in names:
        partial = EvalPoint({k: v for k, v in bindings.items() if k != name})
        with pytest.raises(DomainError) as info:
            identity_residual(identity_id, partial, Nome(u))
        assert type(info.value) is DomainError
        assert str(info.value) == f"missing binding {name!r}"
    if names:
        with pytest.raises(DomainError, match=f"^missing binding {names[0]!r}$"):
            identity_residual(identity_id, EvalPoint({}), Nome(u))
    assert identity_residual(identity_id, EvalPoint(bindings), Nome(u)).rel_residual < 1e-9


def test_special_value_example():
    """kappa(-1, 1) = theta(1)/2 spelled out at one real nome."""
    u = 0.3
    assert abs(kappa(-1, 1, u) - theta(1, u) / 2) < 1e-14
    report = identity_residual("SP4", EvalPoint({}), Nome(u))
    assert report.rel_residual < 1e-14


def test_sqrt_checks_both_branches():
    bindings, u = sample_points(REGISTRY["SQRT"].domain, 1, seed=11)[0]
    s = bindings["s"]
    assert abs(s * s - bindings["a"]) < 1e-12 * abs(bindings["a"])
    report = identity_residual("SQRT", EvalPoint(bindings), Nome(u))
    assert report.rel_residual < 1e-10


def _sqrt_pairs_per_branch(b, u):
    """The SQRT loop that evaluated both vartheta values at s and at -s."""
    z, v, root = b["z"], b["v"], b["s"]
    d0, d1 = vartheta0(1j, v), vartheta1(1j * v * v, v)
    lhs = kappa_bar(root * root * z, 1 / z, u)
    pairs = []
    for s in (root, -root):
        c0 = vartheta0(1j * v * s * z, v) / d0
        c1 = vartheta1(1j * v * s * z, v) / d1
        rhs = c0 * kappa_bar(s / v, v * s, u) + c1 * kappa_bar(v * s, s / v, u)
        pairs.append((lhs, rhs))
    return pairs


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_sqrt_evaluates_each_vartheta_once_per_sample(monkeypatch, seed):
    """vartheta0 is even and vartheta1 odd in an argument that flips sign
    exactly with s, so SQRT evaluates each once per sample, next to its
    normalizer, and its pairs equal the per-branch loop's bit for bit."""
    samples = sample_points(REGISTRY["SQRT"].domain, 2000, seed)
    for bindings, u in samples:
        assert repr(_pairs_sqrt(bindings, u)) == repr(_sqrt_pairs_per_branch(bindings, u))
    calls = []
    for name in ("vartheta0", "vartheta1"):
        original = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda z, v, f=original, n=name: calls.append(n) or f(z, v)
        )
    _pairs_sqrt(*samples[0])
    assert sorted(calls) == ["vartheta0", "vartheta0", "vartheta1", "vartheta1"]


def test_def_identity_at_tiny_nome():
    """The defining relation degenerates gracefully: at u = 1e-9 both sides
    reduce to their n = 0 terms."""
    report = identity_residual(
        "DEF", EvalPoint({"a": 0.3 + 0.2j, "z": 1.2}), Nome(1e-9)
    )
    assert report.rel_residual < 1e-9


def test_for1_numeric_matches_exact_series():
    """Evaluate the exact-series sides of the first three-term relation at
    u = 0.3 and compare against direct numeric evaluation."""
    u = 0.3
    lhs_series, rhs_series = for1_sides(140)
    numeric_lhs = theta(1, u) * 2 * kappa(u, -1, u) + theta(-1, u) * 2 * kappa(-u, 1, u)
    numeric_rhs = theta(u, u) ** 3
    for series, numeric in ((lhs_series, numeric_lhs), (rhs_series, numeric_rhs)):
        value = sum(c * u**k for k, c in enumerate(series.coeffs))
        assert abs(value - numeric) < 1e-12 * abs(numeric)


def test_quasi_entry_runs_on_complex_nome():
    report = identity_residual("QUASI", EvalPoint({}), Nome(0.3 + 0.2j))
    assert report.rel_residual < 1e-9


def _quasi_pairs_per_point(u):
    """The per-point QUASI loop that the kappa sweep replaced: 5 kappa0
    calls, the base zero and its translates by n tau, n in {-2, -1, 1, 2}."""
    tau = cmath.log(u) / (1j * math.pi)
    x0 = (tau + 1.0) / 2.0
    base = kappa0(x0, tau)
    pairs = []
    for n in (-2, -1, 1, 2):
        lhs = kappa0(x0 + n * tau, tau)
        rhs = cmath.exp(1j * math.pi * n * (tau + 1.0)) * base
        pairs.append((lhs, rhs))
    return pairs


@pytest.mark.parametrize("seed", (0, 7))
def test_quasi_sweep_matches_per_point_loop(seed):
    """On seeded QUASI samples the pairs equal the per-point loop's bit for
    bit (compared by repr), and so does the report: lhs, rhs and residual."""
    quasi = REGISTRY["QUASI"]
    for bindings, u in sample_points(quasi.domain, 40, seed):
        expected = _quasi_pairs_per_point(u)
        assert repr(quasi.pairs(bindings, u)) == repr(expected)
        point, nome = EvalPoint(bindings), Nome(u)
        reference = ResidualReport.from_pairs("QUASI", point, nome, expected)
        assert repr(identity_residual("QUASI", point, nome)) == repr(reference)


def test_quasi_integer_translates_move_z_by_rounding_only():
    """kappa0 sees x only through z = exp(2 pi i x), so the translates
    x0 + m + n tau with m != 0 would repeat x0 + n tau up to the rounding of
    cmath.exp: QUASI checks the n tau translates alone."""
    for _, u in sample_points(REGISTRY["QUASI"].domain, 200, 0):
        tau = cmath.log(u) / (1j * math.pi)
        x0 = (tau + 1.0) / 2.0
        for n in range(-2, 3):
            z = cmath.exp(2j * math.pi * (x0 + n * tau))
            for m in range(-2, 3):
                moved = cmath.exp(2j * math.pi * (x0 + m + n * tau))
                assert abs(moved - z) <= 1e-14 * abs(z), (u, m, n)


def test_one_quasi_sample_evaluates_five_kappa0_points(monkeypatch):
    """The base zero and its four n tau translates, in one sweep; no scalar
    kappa0 call."""
    points = []
    sweep = identities.kappa0_sweep
    monkeypatch.setattr(identities, "kappa0_sweep", lambda xs, tau: points.append(len(xs)) or sweep(xs, tau))
    monkeypatch.setattr(identities, "kappa0", lambda x, tau: points.append("scalar"))
    for bindings, u in sample_points(REGISTRY["QUASI"].domain, 3, 0):
        identity_residual("QUASI", EvalPoint(bindings), Nome(u))
    assert points == [5, 5, 5]


def test_verify_registry_shape():
    reports = verify_registry(count=5, seed=1)
    assert sorted(reports) == sorted(EXPECTED_IDS)
    assert all(r.rel_residual < 1e-9 for r in reports.values())


def test_guard_helpers():
    u = 0.3
    assert near_kappa_pole(u**2 * (1 + 1e-6), u)
    assert not near_kappa_pole(1.5 + 0.5j, u)
    assert near_theta_zero(-(u**3) * (1 + 1e-6), u)
    assert not near_theta_zero(u**3, u)
    assert GUARD_TOL == 1e-3


def test_unreachable_guard_raises():
    from appell_kit.identities import DomainSpec

    impossible = DomainSpec(symbols=("a",), guard=lambda b, u: False)
    with pytest.raises(NonReachableGuardError):
        sample_points(impossible, 1, seed=0)


def test_guarded_sample_keeps_first_accepted_under_cap():
    draws = iter(range(100))
    assert guarded_sample(lambda: next(draws), lambda x: x % 3 == 0, 4) == [0, 3, 6, 9]
    calls = []
    with pytest.raises(NonReachableGuardError, match="0/2 points after 3000 draws"):
        guarded_sample(lambda: calls.append(None), lambda x: False, 2)
    assert len(calls) == 3000
    with pytest.raises(DomainError):
        guarded_sample(lambda: 1, lambda x: True, 0)


@pytest.mark.parametrize("identity_id, seed", (("HADD2", 4), ("SQRT", 9), ("ID55", 13)))
def test_samples_are_guarded_once(monkeypatch, identity_id, seed):
    """max_residual_over_samples evaluates the points sample_points accepted
    without guarding them again, and finds the same worst case as
    identity_residual over those points."""
    domain = REGISTRY[identity_id].domain
    expected = None
    for bindings, u in sample_points(domain, 50, seed):
        report = identity_residual(identity_id, EvalPoint(bindings), Nome(u))
        if expected is None or report.rel_residual > expected.rel_residual:
            expected = report
    worst = max_residual_over_samples(identity_id, 50, seed)
    assert worst.rel_residual == expected.rel_residual
    assert worst.point == expected.point
    assert worst.nome == expected.nome

    calls = []
    guard = identities.near_power_orbit

    def counted(*args, **kwargs):
        calls.append(args)
        return guard(*args, **kwargs)

    monkeypatch.setattr(identities, "near_power_orbit", counted)
    sample_points(domain, 50, seed)
    sampling_calls = len(calls)
    max_residual_over_samples(identity_id, 50, seed)
    assert len(calls) == 2 * sampling_calls > 0


def _max_residual_reference(ident, count, seed):
    """The loop max_residual_over_samples replaced: one ResidualReport per
    sample, keeping the first strict maximum."""
    worst = None
    for bindings, u in sample_points(ident.domain, count, seed):
        point, nome = EvalPoint(bindings), Nome(u)
        report = ResidualReport.from_pairs(ident.identity_id, point, nome, ident.pairs(bindings, u))
        if worst is None or report.rel_residual > worst.rel_residual:
            worst = report
    return worst


@pytest.mark.parametrize("seed", (0, 5))
@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_one_report_per_identity_matches_per_sample_reports(identity_id, seed):
    expected = _max_residual_reference(REGISTRY[identity_id], 12, seed)
    assert repr(max_residual_over_samples(identity_id, 12, seed)) == repr(expected)


NAN = float("nan")


@pytest.mark.parametrize(
    "scripted, worst_index",
    [
        # Ties across samples and inside one sample keep the first; a NaN
        # after the first pair never wins, but a sample whose first pair is
        # NaN counts as NaN and loses every comparison.
        ([[(1.0, 1.0)], [(2.0, 1.0), (1.0, 2.0)], [(1.0, 2.0)], [(NAN, 1.0), (9.0, 1.0)]], 1),
        ([[(2.0, 1.0)], [(4.0, 1.0), (NAN, 1.0)], [(1.0, 4.0)], [(1.5, 1.0)]], 1),
        # A NaN first sample is never replaced, as with per-sample reports.
        ([[(NAN, 1.0)], [(5.0, 1.0)], [(1.0, 1.0)]], 0),
    ],
)
def test_worst_sample_keeps_first_maximum_and_nan_semantics(monkeypatch, scripted, worst_index):
    def scripted_identity():
        script = iter(scripted)
        return IdentityDef("SCRIPTED", "scripted pairs", DomainSpec(symbols=("z",)), lambda b, u: next(script))

    reference = _max_residual_reference(scripted_identity(), len(scripted), 3)
    monkeypatch.setitem(REGISTRY, "SCRIPTED", scripted_identity())
    report = max_residual_over_samples("SCRIPTED", len(scripted), 3)
    assert repr(report) == repr(reference)
    bindings, u = sample_points(DomainSpec(symbols=("z",)), len(scripted), 3)[worst_index]
    assert (report.point, report.nome) == (EvalPoint(bindings), Nome(u))
    assert repr(report.lhs) == repr(scripted[worst_index][0][0])


# ---------------------------------------------------------------------------
# sample_points against the draw path it replaced: the same points, and the
# same errors at the same draw
# ---------------------------------------------------------------------------


def _annulus_point_reference(rng, lo=0.5, hi=2.0):
    return cmath.rect(
        math.exp(rng.uniform(math.log(lo), math.log(hi))),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def _sample_points_reference(domain, count, seed=0, *, u_abs_range=U_ABS_RANGE):
    """Copy of the draw path sample_points replaced: every draw is built as a
    checked EvalPoint and Nome, and the guard reads them back."""
    rng = random.Random(seed)
    lo, hi = u_abs_range

    def draw():
        u = cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))
        bindings = {name: _annulus_point_reference(rng) for name in domain.symbols}
        for new_name, source in domain.derived_sqrt:
            bindings[new_name] = cmath.sqrt(u if source == "u" else bindings[source])
        point, nome = EvalPoint(bindings), Nome(u)
        return point.bindings, nome.u

    return guarded_sample(draw, lambda s: domain.guard(*s), count)


def _sampled(sampler, domain, count, seed, u_abs_range=U_ABS_RANGE):
    """repr of the (bindings, u) list, so signed zeros count, or the type and
    message of the error with the number of guard calls made before it."""
    calls = []

    def counted_guard(bindings, u):
        calls.append(None)
        return domain.guard(bindings, u)

    try:
        points = sampler(domain._replace(guard=counted_guard), count, seed, u_abs_range=u_abs_range)
    except DomainError as exc:
        return type(exc), str(exc), len(calls)
    assert all(type(b) is dict and type(u) is complex for b, u in points)
    return repr([(list(b.items()), u) for b, u in points])


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_sample_points_match_checked_draw_path(identity_id):
    domain = REGISTRY[identity_id].domain
    for seed in (0, 1, 7):
        expected = _sampled(_sample_points_reference, domain, 200, seed)
        assert isinstance(expected, str)
        assert _sampled(sample_points, domain, 200, seed) == expected
    expected = _sampled(_sample_points_reference, domain, 200, 0, (0.95, 0.999))
    assert isinstance(expected, str)
    assert _sampled(sample_points, domain, 200, 0, (0.95, 0.999)) == expected


@pytest.mark.parametrize("identity_id", sorted(EXPECTED_IDS))
def test_sample_points_bad_nome_raises_at_same_draw(identity_id):
    """|u| >= 1, u = 0 (where a square root of u is the zero binding the
    checked path named first) and NaN raise the checked constructors' error
    after as many guard calls as before."""
    for u_abs_range, guard_calls in (
        ((0.5, 1.02), None),
        ((1.0, 1.5), 0),
        ((0.0, 0.0), 0),
        ((math.nan, math.nan), 0),
    ):
        domain = REGISTRY[identity_id].domain
        for seed in (0, 3):
            expected = _sampled(_sample_points_reference, domain, 200, seed, u_abs_range)
            assert _sampled(sample_points, domain, 200, seed, u_abs_range) == expected
            assert expected[0] is DomainError
            assert expected[2] > 0 if guard_calls is None else expected[2] == guard_calls


def test_sample_points_count_and_unreachable_errors_unchanged():
    impossible = DomainSpec(symbols=("a",), guard=lambda b, u: False)
    for domain, count in ((REGISTRY["DEF"].domain, 0), (REGISTRY["SP2"].domain, -3), (impossible, 2)):
        expected = _sampled(_sample_points_reference, domain, count, 0)
        assert _sampled(sample_points, domain, count, 0) == expected
    assert expected[:2] == (NonReachableGuardError, "guard accepted only 0/2 points after 3000 draws")


@pytest.mark.parametrize("radius_range", ((0.5, 2.0), (0.3, 3.0)))
def test_z_points_keep_annulus_stream(radius_range):
    from appell_kit.bundles import sample_z_points

    for u in (0.2, 0.4 + 0.1j):
        rng = random.Random(5)
        expected = guarded_sample(
            lambda: _annulus_point_reference(rng, *radius_range),
            lambda z: not near_power_orbit(z, u, sign=-1, parity=1, tol=1e-3)
            and not near_power_orbit(z, u, sign=1, parity=1, tol=1e-3),
            100,
        )
        assert repr(sample_z_points(u, 100, 5, radius_range)) == repr(expected)


def _pairs_sqrt_reference(p, u):
    """Copy of _pairs_sqrt before its left side was computed once."""
    z, v = p["z"], p["v"]
    d0, d1 = vartheta0(1j, v), vartheta1(1j * v * v, v)
    pairs = []
    for s in (p["s"], -p["s"]):
        a = s * s
        lhs = kappa_bar(a * z, 1 / z, u)
        c0 = vartheta0(1j * v * s * z, v) / d0
        c1 = vartheta1(1j * v * s * z, v) / d1
        rhs = c0 * kappa_bar(s / v, v * s, u) + c1 * kappa_bar(v * s, s / v, u)
        pairs.append((lhs, rhs))
    return pairs


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_sqrt_left_side_once_keeps_pairs(seed):
    for bindings, u in sample_points(REGISTRY["SQRT"].domain, 100, seed):
        assert repr(_pairs_sqrt(bindings, u)) == repr(_pairs_sqrt_reference(bindings, u))
