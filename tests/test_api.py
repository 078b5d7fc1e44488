import ast
import os
import subprocess
import sys
import types
from importlib import import_module
from pathlib import Path

import pytest

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


def _loaded_after(statement: str) -> list[str]:
    """The package's submodules a fresh interpreter holds after ``statement``
    (which may print; the list is the last line of stdout)."""
    code = (f"import sys; {statement}; "
            "print(sorted(m for m in sys.modules if m.startswith('padic_ciphers.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _loaded_by_commands(*argvs: list[str]) -> set[str]:
    """The layers loaded by running each argv through ``cli.run_command``, in
    one fresh interpreter; every command must exit 0."""
    statement = ("from padic_ciphers.cli import run_command; "
                 f"assert [run_command(a) for a in {list(argvs)!r}] == {[0] * len(argvs)!r}")
    return {name.removeprefix("padic_ciphers.") for name in _loaded_after(statement)}


def test_a_bare_import_loads_no_submodule():
    assert _loaded_after("import padic_ciphers") == []


def test_the_cli_does_not_load_the_automaton():
    loaded = _loaded_after("import padic_ciphers.cli")
    assert "padic_ciphers.cli" in loaded
    assert "padic_ciphers.automaton" not in loaded
    assert loaded == ["padic_ciphers.ciphers", "padic_ciphers.cli", "padic_ciphers.core"]


@pytest.mark.parametrize("family", ["additive", "multiplicative", "xor", "and", "fhe"])
def test_keygen_encrypt_and_decrypt_load_only_core_and_ciphers(tmp_path, family):
    key = str(tmp_path / "k.json")
    loaded = _loaded_by_commands(
        ["keygen", "--family", family, "--p", "5", "--precision", "4", "--seed", "1",
         "--out", key],
        ["encrypt", "--key", key, "7"],
        ["decrypt", "--key", key, "7", "--json"],
    )
    assert loaded == {"cli", "ciphers", "core"}


def test_check_and_search_do_not_load_the_formula_layer(tmp_path):
    key, table = str(tmp_path / "k.json"), str(tmp_path / "t.txt")
    loaded = _loaded_by_commands(
        ["keygen", "--family", "additive", "--p", "3", "--precision", "2", "--out", key],
        ["check", "--key", key, "--out", table],
        ["check", "--table", table],
        ["search", "ADD", "MUL", "--keys", "2"],
    )
    assert "analysis" in loaded and "lipschitz" in loaded
    assert "formula" not in loaded


def test_a_plain_eval_loads_no_scans():
    assert _loaded_by_commands(["eval", "--formula", "1+2"]) == {
        "cli", "ciphers", "core", "formula"}


def test_every_export_is_the_object_of_its_defining_module():
    for name, where in padic_ciphers._EXPORTS.items():
        module, attr = where if isinstance(where, tuple) else (where, name)
        obj = getattr(import_module(f"padic_ciphers.{module}"), attr)
        assert getattr(padic_ciphers, name) is obj
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == f"padic_ciphers.{module}"
    assert padic_ciphers.formula_to_text is import_module("padic_ciphers.formula").to_text
    assert padic_ciphers.to_text is import_module("padic_ciphers.core").to_text


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        padic_ciphers.no_such_name


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
