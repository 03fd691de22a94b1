"""scripts/residual_survey.py: a window the kernel refuses becomes a row."""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
