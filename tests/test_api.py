import ast
from pathlib import Path

import padic_ciphers

SRC = Path(padic_ciphers.__file__).parent


def test_every_export_resolves():
    missing = [name for name in padic_ciphers.__all__ if not hasattr(padic_ciphers, name)]
    assert missing == []
    assert len(set(padic_ciphers.__all__)) == len(padic_ciphers.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from padic_ciphers import *", namespace)
    assert set(padic_ciphers.__all__) <= set(namespace)


def test_every_public_name_has_a_caller_or_is_exported():
    """A public module-level function or class is used somewhere in the package
    outside its own definition, or it is part of the API in ``__all__``."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
                own.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and own.get(id(node)) != name:
                used.add(name)
    unused = sorted(name for name in defined
                    if name not in used and name not in padic_ciphers.__all__)
    assert unused == []
