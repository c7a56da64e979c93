import ast
import re
from pathlib import Path

import pytest

import anonytope
from anonytope.cli import RunConfig, _parser

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


def test_run_config_has_one_field_per_flag():
    # a removed flag must take its field with it, and a new one add one
    flags = set(vars(_parser().parse_args(["sweep"]))) - {"command", "config"}
    assert set(vars(RunConfig())) == flags
