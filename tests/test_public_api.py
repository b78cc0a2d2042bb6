"""Every public symbol, and every private top-level function, has a caller
inside the package itself."""

import ast
from pathlib import Path

import texscreen

PACKAGE = Path(texscreen.__file__).resolve().parent
MODULES = {
    path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
}


def _referenced_names(skip: ast.AST | None = None) -> set[str]:
    """Names loaded anywhere in the package outside `__init__.py`'s re-exports
    and outside the top-level definition `skip`."""
    names = set()
    for path, tree in MODULES.items():
        if path.name == "__init__.py":
            continue
        for node in (node for top in tree.body if top is not skip for node in ast.walk(top)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_in_the_package():
    unused = sorted(set(texscreen.__all__) - _referenced_names())
    assert unused == []


def test_every_public_definition_is_used_in_the_package():
    # top-level functions and classes only; constants are out of scope
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    referenced = _referenced_names()
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, kinds)
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert unused == []


def test_every_public_method_is_used_in_the_package():
    # methods and properties of top-level classes; dunders and private names
    # are out of scope
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    referenced = _referenced_names()
    unused = sorted(
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in MODULES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, functions)
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    assert unused == []


def test_every_private_function_is_called_in_the_package():
    # a helper that only calls itself, or that only tests call, is dead code
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, functions)
        and node.name.startswith("_")
        and node.name not in _referenced_names(skip=node)
    )
    assert unused == []
