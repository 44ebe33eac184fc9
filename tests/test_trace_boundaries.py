"""The names the benchmark tracer wraps must stay bound in galedual.

``bench/spans.py`` replaces ``(calling module, attribute)`` pairs in its
``BOUNDARIES`` table with timing wrappers, looking each attribute up by name.
A name that a refactor drops makes ``bench/run.py --trace 1`` fail with
``AttributeError``, so every entry is resolved here. Conversely, an import
that its module does not use (``# noqa: F401``) must bind only names the
tracer looks up on that module, so that those imports can go together once
the tracer stops patching names.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "galedual"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(caller, attr) for caller, attr, _, _ in module.BOUNDARIES]


@pytest.mark.parametrize("caller, attr", load_boundaries())
def test_traced_name_resolves(caller, attr):
    owner = importlib.import_module(f"galedual.{caller}")
    if "." in attr:  # a method, looked up on its class
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert callable(getattr(owner, attr, None)), f"galedual.{caller} has no {attr}"


def unused_imports():
    """(module, name) for every name a ``# noqa: F401`` import binds in galedual."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
                found += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("module, name", unused_imports())
def test_unused_import_is_a_traced_name(module, name):
    assert (module, name) in load_boundaries(), f"galedual.{module} imports {name} for no traced boundary"
