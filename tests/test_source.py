"""Checks on the package source itself."""

import ast
from pathlib import Path

import subsetcurrents

PACKAGE_DIR = Path(subsetcurrents.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no check may rely on one.
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
