"""A cold import of the package loads neither ``dataclasses`` nor, unless the
bare interpreter already does, ``inspect``: with the modules they pull in
(``ast``, ``dis``, ``tokenize``, ``copy``) they were the largest share of the
package's import time, which every ``appell-kit`` call pays."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after(statement: str) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = f"{statement}\nimport sys\nprint(*sys.modules, sep='\\n')"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


@pytest.mark.parametrize("module", ("appell_kit", "appell_kit.cli"))
def test_cold_import_loads_no_dataclasses_or_inspect(module):
    loaded = _modules_after(f"import {module}")
    assert module in loaded
    assert "dataclasses" not in loaded
    if "inspect" not in _modules_after("pass"):
        assert "inspect" not in loaded
