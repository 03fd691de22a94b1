"""Ceilings on the worst residual of every record of ``verify all --seed 0``.

The tolerance of 1e-9 leaves five to seven orders of magnitude above the
residuals a correct kernel reaches, so a kernel error of 1e-12 passes every
record.  These ceilings sit at 16 times the worst each record read when it
was pinned: a relative error in ``kappa`` or ``theta`` that moves a record's
worst by more than that fails here long before it fails the report.  A change
that moves a worst on purpose re-pins it here and says why.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from appell_kit import bundles, modular
from appell_kit.cli import RECORD_KINDS, main

#: Headroom over the pinned worst: room for platform libm differences, yet a
#: relative error of 1e-12 in kappa or in theta, patched where numeric,
#: identities, bundles, modular and cli bind it, lifts 24 worsts past it
#: (23 for kappa, whose patch on numeric reaches each sweep's first point,
#: and 21 for theta).
CEILING_FACTOR = 16.0

#: Worst residual of each record whose worst is nonzero, from
#: ``appell-kit verify all --seed 0``.
PINNED_WORSTS = {
    "ADDF": 1.19302072756465e-15,
    "BEZOUT_PAIR": 9.930136612989092e-16,
    "CONST_CA_CROSS": 4.2534212176431403e-16,
    "CONST_C_CROSS": 1.7772239894833365e-16,
    "DEF": 1.159106867033638e-15,
    "DEF2": 1.1574006721173955e-15,
    "DET_B_SPREAD": 3.804375591835996e-16,
    "DET_C_SPREAD": 4.47545209131181e-16,
    "DIVISIBILITY_GENERATORS": 1.4038677752706665e-15,
    "DIVISIBILITY_WORDS": 2.5612368304612335e-15,
    "FOR1": 1.790180836524724e-15,
    "FOR2": 1.0604031414505781e-14,
    "GAUGE_B_CONJ": 2.590175314662277e-15,
    "GAUGE_C_CONJ": 3.48049503291683e-16,
    "HADD": 4.138441000969929e-15,
    "HADD2": 8.585898437364059e-15,
    "HADD3": 4.5861261505098125e-15,
    "HALFSER_M": 5.312813110974554e-16,
    "HALFSER_P": 4.3768001058724915e-16,
    "ID4": 6.480550499045633e-14,
    "ID55": 2.434537831024359e-15,
    "ID5PROD": 5.012088399850626e-15,
    "ID5SUM": 1.86447958164096e-14,
    "ID6": 3.7499251557371516e-14,
    "INV": 6.612198504700286e-16,
    "JAC": 9.775453777150018e-16,
    "MU_EXPANSION": 3.0211794439453703e-15,
    "QUASI": 1.2338455812852321e-13,
    "SECTION_BASIS": 1.1439596071344835e-15,
    "SECTION_KAPPA_THETA": 5.551115123125783e-16,
    "SECTION_PUSH": 4.002966042486721e-16,
    "SECTION_THETA": 5.551115123125783e-16,
    "SP1": 3.609932461376776e-15,
    "SP2": 7.717407238934329e-16,
    "SP3": 4.965068306494546e-16,
    "SP4": 3.3306690738754696e-16,
    "SP5": 5.85853278918644e-16,
    "SQRT": 2.975418419039454e-15,
    "SYM": 1.0007415106216803e-15,
    "ZETA_SQ_COCYCLE": 2.3558458307192816e-15,
}

#: Records whose worst is exact: k_gamma at the identity and chi's
#: multiplicativity are computed from exact roots of unity.
EXACTLY_ZERO = ("CHI_MULTIPLICATIVITY", "K_GAMMA_IDENTITY")

#: Exact-coefficient records: a verdict, no residual.
EXACT_RECORDS = (
    "FOR1_EXACT", "FOR2_EXACT", "TRIANGULAR_ANDREWS", "TRIANGULAR_COUNTS", "TRIANGULAR_DOUBLE_SUM"
)


def _report() -> dict[str, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(["verify", "all", "--seed", "0"])
    return {r["record_id"]: r for r in json.loads(out.getvalue())["records"]}


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    return _report()


def test_the_ceilings_cover_every_record(records):
    assert sorted(records) == sorted(RECORD_KINDS)
    assert sorted([*PINNED_WORSTS, *EXACTLY_ZERO, *EXACT_RECORDS]) == sorted(RECORD_KINDS)


@pytest.mark.parametrize("record_id", PINNED_WORSTS)
def test_worst_stays_under_its_ceiling(records, record_id):
    worst = records[record_id]["worst"]
    assert 0.0 <= worst <= CEILING_FACTOR * PINNED_WORSTS[record_id], (
        f"{record_id}: worst {worst!r} is {worst / PINNED_WORSTS[record_id]:.3g}x the pinned value"
    )


@pytest.mark.parametrize("record_id", EXACTLY_ZERO)
def test_exact_root_of_unity_records_read_zero(records, record_id):
    assert records[record_id]["worst"] == 0.0


@pytest.mark.parametrize("record_id", EXACT_RECORDS)
def test_exact_records_pass(records, record_id):
    assert records[record_id]["passed"] is True


@pytest.mark.parametrize(
    "module, sweep, record_id",
    (
        (modular, "kappa_sweep", "QUASI"),
        (bundles, "kappa_sweep", "MU_EXPANSION"),
        (bundles, "theta_sweep", "MU_EXPANSION"),
    ),
)
def test_sweep_errors_lift_the_records_they_feed(monkeypatch, module, sweep, record_id):
    """An error of 1e-12 * z on every value a sweep returns, patched where the
    module binds that sweep, lifts the record it feeds past its ceiling.  A
    relative error would not do for QUASI: its law is homogeneous in kappa0."""
    original = getattr(module, sweep)

    def shifted(*args):
        zs = args[-2]  # kappa_sweep(a, zs, u) and theta_sweep(zs, u)
        return [value + 1e-12 * z for value, z in zip(original(*args), zs)]

    monkeypatch.setattr(module, sweep, shifted)
    records = _report()
    lifted = [
        name for name, pinned in PINNED_WORSTS.items() if records[name]["worst"] > CEILING_FACTOR * pinned
    ]
    assert record_id in lifted, f"{module.__name__}.{sweep} + 1e-12*z lifted only {lifted}"
