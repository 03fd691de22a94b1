"""scripts/residual_survey.py: a window the kernel refuses becomes a row, the
rows equal a per-point loop over the window, and bad argv exits 2."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from appell_kit import identities
from appell_kit.numeric import DomainError, EvalPoint, Nome, NonconvergenceError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "residual_survey.py"


def load_survey():
    spec = importlib.util.spec_from_file_location("residual_survey", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refused_window_becomes_row(capsys):
    survey = load_survey()
    argv = ["--ids", "QUASI", "--windows", "0.95:0.999:1", "--samples", "2"]
    assert survey.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "identity,u_lo,u_hi,samples,worst_residual",
        "QUASI,0.9500,0.9990,2,refused",
    ]
    assert "QUASI [0.9500, 0.9990] refused: " in captured.err
    assert "Traceback" not in captured.err


def reference_rows(ids, windows, samples, seed):
    """The survey's per-point loop: guard every sample again through
    identity_residual and keep the largest residual, starting from 0.0."""
    for identity_id in ids:
        domain = identities.REGISTRY[identity_id].domain
        for lo, hi in windows:
            worst = 0.0
            try:
                for bindings, u in identities.sample_points(domain, samples, seed, u_abs_range=(lo, hi)):
                    report = identities.identity_residual(identity_id, EvalPoint(bindings), Nome(u))
                    worst = max(worst, report.rel_residual)
            except (DomainError, NonconvergenceError) as exc:
                yield identity_id, lo, hi, samples, None, str(exc)
            else:
                yield identity_id, lo, hi, samples, worst, None


@pytest.mark.parametrize("seed", (0, 4))
@pytest.mark.parametrize("spec", ("0.05:0.75:3", "0.95:0.999:2"))
def test_rows_equal_per_point_reference(spec, seed):
    """The rows the registry's sampled loop gives equal the per-point loop's,
    refusals and their reasons included."""
    survey = load_survey()
    ids = ("DEF", "HADD", "SQRT", "QUASI")
    windows = survey.parse_windows(spec)
    rows = [
        (*row[:5], None if row[5] is None else str(row[5]))
        for row in survey.survey_rows(ids, windows, 6, seed)
    ]
    assert rows == list(reference_rows(ids, windows, 6, seed))


@pytest.mark.parametrize(
    "argv, message",
    (
        (["--ids", "FOO", "--samples", "2"], "unknown identity ids: 'FOO'"),
        (["--ids", "DEF,", "--samples", "2"], "unknown identity ids: ''"),
        (["--samples", "0"], "argument --samples: must be >= 1, got 0"),
        (["--samples", "-3"], "argument --samples: must be >= 1, got -3"),
    ),
)
def test_bad_argv_exits_2_with_one_error_line(capsys, argv, message):
    survey = load_survey()
    with pytest.raises(SystemExit) as exc:
        survey.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f": error: {message}")
    assert "Traceback" not in captured.err


def test_unwritable_out_exits_2_before_surveying(capsys, monkeypatch):
    """An --out path that cannot be opened is one error line and exit 2,
    raised before any row is computed."""
    survey = load_survey()

    def no_rows(*args):
        raise AssertionError("the survey ran before --out was opened")

    monkeypatch.setattr(survey, "survey_rows", no_rows)
    argv = ["--out", "/nonexistent/x.csv", "--ids", "DEF", "--samples", "2"]
    assert survey.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("error: ") and "/nonexistent/x.csv" in errors[0]


def test_out_file_holds_the_stdout_rows(capsys, tmp_path):
    survey = load_survey()
    argv = ["--ids", "DEF", "--samples", "2", "--windows", "0.1:0.5:2"]
    assert survey.main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "survey.csv"
    assert survey.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path} (2 rows)\n"
    assert path.read_text(encoding="utf-8") == printed
