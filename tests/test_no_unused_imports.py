"""Every name a module of the package imports is used in that module: an
import left behind by a change that stopped calling it reads as a dependency
that is not there. A name imported only so that other code can look it up on
the module carries ``# noqa: F401`` on its import, and ``__init__`` may
import the names it re-exports in ``__all__``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galedual"


def imported_names(tree, lines):
    """(name, line) of each name an import statement binds, except
    ``from __future__`` features and imports marked ``# noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = {}
    for path in modules:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= exported_names(tree)
        unused = [f"{name} (line {line})" for name, line in imported_names(tree, source.splitlines())
                  if name not in used]
        if unused:
            found[path.name] = unused
    assert found == {}, f"imported and never used (module: names): {found}"
