"""Every public symbol has a caller inside the package itself."""

import ast
from pathlib import Path

import texscreen

PACKAGE = Path(texscreen.__file__).resolve().parent


def _referenced_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_in_the_package():
    unused = sorted(set(texscreen.__all__) - _referenced_names())
    assert unused == []
