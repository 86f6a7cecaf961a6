import ast
from pathlib import Path

import flatrank

SOURCES = sorted(Path(flatrank.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    """`python -O` strips assert statements, so a check in the library must
    raise instead."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
