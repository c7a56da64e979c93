import ast
from pathlib import Path

import anonytope

PACKAGE = Path(anonytope.__file__).parent


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}"
                   for name in sorted(imported - used - {"annotations"})]
    assert unused == []
