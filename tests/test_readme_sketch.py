"""The README's library sketch runs as written, and each comparison it
states holds."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_sketch() -> str:
    """The python block under the README's "## Library sketch" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_sketch_runs():
    tree = ast.parse(library_sketch())
    namespace: dict = {}
    compares = 0
    for statement in tree.body:
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Compare):
            compares += 1
            assert eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert compares >= 1
