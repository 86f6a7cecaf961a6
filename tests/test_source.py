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


def test_library_has_no_unused_imports():
    """Every name a module imports at its top level is read somewhere in
    that module, so moving code out of a module leaves no orphan import."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert SOURCES and not found, found
