import ast
import importlib
import re
from pathlib import Path

import pytest

import anonytope
from conftest import AGES, TREES_YAML, ZIPS

PACKAGE = Path(anonytope.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__.py imports names to re-export them
    paths = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted(ROOT.glob("tests/*.py"))
    paths += sorted(ROOT.glob("scripts/*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported - used - {"annotations"})]
    assert unused == []


def test_readme_imports_exist():
    # the README's library snippets import from the package root, so each
    # name must stay exported there
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    missing = [alias.name for block in blocks
               for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom)
               and node.module == "anonytope"
               for alias in node.names
               if alias.name not in anonytope.__all__]
    assert missing == []


def test_every_readme_python_block_runs(tmp_path, monkeypatch):
    # in a directory that holds the files the blocks read: the sample
    # Age/ZIP table, with a leaf of each tree of TREES_YAML per row
    genders = ["Male", "Female", "Female", "Male", "Male", "Female",
               "Male", "Female", "Male"]
    countries = ["Portugal", "Spain", "Hungary", "USA", "Canada", "USA",
                 "Spain", "Portugal", "Hungary"]
    lines = ["Age,ZIP,gender,country"]
    lines += [f"{a},{z},{g},{c}"
              for a, z, g, c in zip(AGES, ZIPS, genders, countries)]
    (tmp_path / "people.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "trees.yaml").write_text(TREES_YAML)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    # the package root imports each name from its home module on first
    # access
    for name in anonytope.__all__:
        assert getattr(anonytope, name).__name__ == name
    namespace = {}
    exec("from anonytope import *", namespace)
    assert all(namespace[name] is getattr(anonytope, name)
               for name in anonytope.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        anonytope.no_such_name


def test_every_package_function_is_read_by_the_package():
    # a function that only tests read belongs in the tests.  Python reads
    # a dunder itself, and a base class reads a method that overrides one
    # of its attributes
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    read = set(anonytope.__all__)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name.split(".")[-1] for alias in node.names)
    unread = []
    for stem, tree in modules.items():
        owner = {}          # id of a method's node -> its class
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(f"anonytope.{stem}"),
                              node.name)
                owner.update((id(fn), cls) for fn in node.body)
        for node in ast.walk(tree):
            name = getattr(node, "name", "")
            if (not isinstance(node, ast.FunctionDef) or name in read
                    or name.startswith("__") and name.endswith("__")):
                continue
            cls = owner.get(id(node))
            if cls is None or not any(hasattr(base, name)
                                      for base in cls.__mro__[1:]):
                unread.append(f"{stem}.{name}")
    assert unread == []


def test_only_cli_lays_out_written_files():
    # cli is the one module that writes files, and the one home of their
    # JSON shapes; the library layers return plain records
    shapes = [f"{path.stem}.{node.name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cli"
              for node in ast.walk(ast.parse(path.read_text("utf-8")))
              if isinstance(node, ast.FunctionDef)
              and (node.name.endswith("_json")
                   or node.name == "regime_report")]
    assert shapes == []


def test_declared_numpy_bound_covers_vecdot():
    # np.vecdot came with NumPy 2.0; under 1.x every numeric command
    # would fail with an AttributeError
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    [major] = re.findall(r'"numpy\s*(?:>=\s*(\d+))?[^"]*"', text)
    uses = [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "vecdot" in path.read_text(encoding="utf-8")]
    assert not uses or int(major or 0) >= 2, uses
