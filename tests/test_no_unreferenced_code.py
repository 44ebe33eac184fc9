"""Every top-level function and class of the package is referenced: code that
nothing calls reads as a feature that is not there. A definition counts as
referenced when some module of the package names it (an ``ast.Name``, an
``ast.Attribute`` or an import alias), when ``bench/spans.py`` binds it in
``BOUNDARIES`` to time it, or when ``__init__`` exports it in ``__all__``.
``ALLOWED`` lists the rest, each with its reason."""

import ast

from test_no_unused_imports import PACKAGE, exported_names
from test_trace_boundaries import load_boundaries

# (module, name) -> why it stays although nothing in the package refers to it
ALLOWED = {
    ("polytopes", "euler_characteristic"): (
        "acceptance criterion 6 (tests/test_acceptance.py) checks the Euler characteristic "
        "against the volume bound through it"
    ),
}


def parsed_modules():
    modules = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert modules, f"no modules found under {PACKAGE}"
    return modules


def definitions(modules):
    """(module, name) of each top-level def and class."""
    return [
        (module, node.name)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def referenced_names(modules):
    """Every name some module of the package refers to."""
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
    return names


def test_package_has_no_unreferenced_code():
    modules = parsed_modules()
    kept = referenced_names(modules) | exported_names(modules["__init__"])
    kept |= {attr.split(".")[0] for _, attr in load_boundaries()}
    unreferenced = [d for d in definitions(modules) if d[1] not in kept and d not in ALLOWED]
    assert unreferenced == [], f"defined and never referenced (module, name): {unreferenced}"


def test_allowed_names_are_defined_and_unreferenced():
    # an entry whose definition is gone, or that has gained a caller, is stale
    modules = parsed_modules()
    stale = [d for d in ALLOWED if d not in definitions(modules) or d[1] in referenced_names(modules)]
    assert stale == [], f"allowed without need (module, name): {stale}"
