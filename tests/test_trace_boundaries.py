"""The names the benchmark tracer wraps must stay bound in galedual.

``bench/spans.py`` replaces ``(calling module, attribute)`` pairs in its
``BOUNDARIES`` table with timing wrappers, looking each attribute up by name.
A name that a refactor drops makes ``bench/run.py --trace 1`` fail with
``AttributeError``, so every entry is resolved here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
