import ast
import pathlib

import retraction_lab

SRC = pathlib.Path(retraction_lab.__file__).parent


def test_library_has_no_assert():
    """Runtime invariants raise: `python -O` strips every assert."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
