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


def test_search_eval_and_demo_read_no_table_so_load_no_lipschitz(tmp_path):
    """The scans of keys, the law checks of an encrypted evaluation and the
    test of a drawn key (on all 27 residues at (3,3), on random ones at (3,8))
    need no value table."""
    key = str(tmp_path / "k.json")
    loaded = _loaded_by_commands(
        ["keygen", "--family", "fhe", "--p", "5", "--precision", "3", "--out", key],
        ["search", "ADD", "MUL", "--p", "3", "--precision", "3", "--keys", "2"],
        ["search", "XOR", "AND", "--p", "3", "--precision", "8", "--keys", "1"],
        ["eval", "--key", key, "--formula", "G1(x, y) + x", "--env", "x=2", "--env", "y=3"],
        ["demo"],
    )
    assert "analysis" in loaded and "formula" in loaded
    assert "lipschitz" not in loaded


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


def _defined_names(tree: ast.Module):
    """Each name a module defines, with the node that defines it: its
    functions, classes and constants, and the methods and properties of its
    classes as ``Class.name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _names_without_a_caller(keep) -> list[str]:
    """Each name from ``_defined_names`` over src/ with ``keep(qualified,
    name)`` that the package reads nowhere outside its own definition.  A
    method or property counts as read only as an attribute (``x.name``), so a
    local variable of the same name does not keep it."""
    defined, names, attributes = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {}
        for qualified, node in _defined_names(tree):
            name = qualified.rpartition(".")[2]
            if keep(qualified, name):
                defined[qualified] = name
                for sub in ast.walk(node):
                    own.setdefault(id(sub), set()).add(name)
        for node in ast.walk(tree):
            read, name = ((names, node.id) if isinstance(node, ast.Name)
                          else (attributes, node.attr) if isinstance(node, ast.Attribute)
                          else (None, None))
            if read is not None and name not in own.get(id(node), ()):
                read.add(name)
    return sorted(qualified for qualified, name in defined.items()
                  if name not in attributes and ("." in qualified or name not in names))


def test_every_public_name_has_a_caller_or_is_exported():
    """A public module-level function, class or constant is used somewhere in
    the package outside its own definition, or it is part of the API in
    ``__all__``; a public method or property of a public class is used outside
    its own definition."""
    unused = _names_without_a_caller(lambda qualified, name: not qualified.startswith("_")
                                     and not name.startswith("_"))
    assert [name for name in unused if name not in padic_ciphers.__all__] == []


def test_every_private_name_has_a_caller():
    """A private module-level function, class or constant, a method or
    property of a private class, and a private method or property of a public
    class (dunders aside) is used somewhere in the package outside its own
    definition."""
    assert _names_without_a_caller(lambda qualified, name: (qualified.startswith("_")
                                   or name.startswith("_")) and not name.startswith("__")) == []


def test_no_module_imports_a_name_it_never_uses():
    """Each name a module under src/ or tests/ imports is read somewhere in
    that module (``from __future__`` imports aside)."""
    unused = []
    for path in sorted([*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_no_two_functions_in_src_have_the_same_body():
    """Each function, method or property body under src/ (its docstring
    aside) is written once; a second copy is bound to the first by name."""
    bodies: dict[tuple[str, ...], list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = node.body[ast.get_docstring(node) is not None:]
                bodies.setdefault(tuple(map(ast.dump, body)), []).append(
                    f"{path.name}:{node.lineno} {node.name}")
    assert [names for names in bodies.values() if len(names) > 1] == []


def test_every_bound_on_work_is_defined_in_core():
    """No module under src/ but core defines a module-level constant named
    MAX_*, *_LIMIT or *_BUDGET, so each bound has one value to read and patch."""
    bounds = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "core.py":
            continue
        for name, node in _defined_names(ast.parse(path.read_text())):
            bare = name.lstrip("_")
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                    bare.startswith("MAX_") or bare.endswith(("_LIMIT", "_BUDGET"))):
                bounds.append(f"{path.name} {name}")
    assert bounds == []


def test_no_module_imports_a_private_name_but_from_core():
    """A module under src/ reads a private name of another module only from
    core, the one module every layer shares."""
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module != "core":
                imports += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert imports == []


def _message_template(node: ast.expr) -> tuple | None:
    """The constant parts of a str or f-string message, a placeholder for each
    formatted value; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return (node.value,)
    if isinstance(node, ast.JoinedStr):
        return tuple(part.value if isinstance(part, ast.Constant) else None
                     for part in node.values)
    return None


def test_no_two_raise_sites_in_src_build_the_same_message():
    """Each refusal is written once: no two ``raise`` statements under src/
    build the same exception class with the same message template."""
    sites: dict[tuple, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.args):
                continue
            template = _message_template(exc.args[0])
            if template is not None:
                sites.setdefault((exc.func.id, template), []).append(f"{path.name}:{node.lineno}")
    assert [where for where in sites.values() if len(where) > 1] == []
