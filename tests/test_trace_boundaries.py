"""The names the benchmark tracer wraps must stay bound in galedual.

``bench/spans.py`` replaces ``(calling module, attribute)`` pairs in its
``BOUNDARIES`` table with timing wrappers, looking each attribute up by name.
A name that a refactor drops makes ``bench/run.py --trace 1`` fail with
``AttributeError``, so every entry is resolved here. Conversely, an import
that its module does not use (``# noqa: F401``) must bind only names the
tracer looks up on that module, so that those imports can go together once
the tracer stops patching names. Every size observer must also read the
value its wrapped function really returns.
"""

import ast
import importlib
import importlib.util
from importlib.resources import files
from pathlib import Path

import pytest

from galedual.cli import main
from galedual.serialize import load_system
from galedual.systems import cleared_polynomials

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "galedual"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_boundaries():
    return [(caller, attr) for caller, attr, _, _ in load_spans().BOUNDARIES]


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


def test_size_observers_read_the_real_return_values(monkeypatch, tmp_path):
    # the tracer installed as bench/run.py --trace 1 installs it, on verify
    # and bound of the example22 fixtures; the three observed functions those
    # commands do not reach are called on the fixtures directly
    spans = load_spans()
    modules = {caller: importlib.import_module(f"galedual.{caller}") for caller, _, _, _ in spans.BOUNDARIES}
    observed, boundaries = {}, []
    for caller, attr, name, observe in spans.BOUNDARIES:
        owner, leaf = modules[caller], attr
        if "." in attr:
            cls_name, leaf = attr.split(".")
            owner = getattr(owner, cls_name)
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))  # undone after the test
        if observe is not None:
            def observe(sizes, args, result, observe=observe, key=(caller, attr)):
                observe(sizes, args, result)
                observed[key] = observed.get(key, 0) + 1
        boundaries.append((caller, attr, name, observe))
    monkeypatch.setattr(spans, "BOUNDARIES", tuple(boundaries))
    tracer = spans.Tracer()
    tracer.install(modules)
    paths = {name: str(files("galedual") / "fixtures" / f"{name}.json")
             for name in ("example22_sparse", "example22_master")}
    for path in paths.values():
        for command in ("verify", "bound"):
            assert main([command, "--input", path, "--output", str(tmp_path / "out.json")]) == 0
    modules["solver"].bivariate_resultant(*cleared_polynomials(load_system(paths["example22_sparse"])), 1)
    modules["polytopes"].euler_characteristic(load_system(paths["example22_master"]).weights)
    modules["duality"].quotient_images(load_system(paths["example22_master"]).weights)
    assert set(observed) == {(caller, attr) for caller, attr, _, observe in load_spans().BOUNDARIES if observe}
    # the sizes of the integer pairs: the torus sides, the master sides, and the resultant
    assert tracer.sizes["systems.cleared_degree_poly"] == [6, 6]
    assert tracer.sizes["systems.cleared_degree_master"] == [5, 4, 5, 4]
    assert tracer.sizes["polynomials.resultant_degree"] == [19]
    assert all(isinstance(v, int) for values in tracer.sizes.values() for v in values)
