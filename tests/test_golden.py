"""The bundled fixtures' outputs, pinned: dualize and bound byte for byte,
solve and verify by their exact fields.

dualize and bound are exact (ints and Fractions throughout), so their
stdout, stderr and exit code do not depend on the platform. solve and
verify print floats too, so only the fields that exact arithmetic decides
are pinned: counts, multiplicities, realness, locations, flags,
diagnostics, the matching and the bound. A change that keeps results must
keep all of these. Three random sparse systems of the benchmark corpus
(tests/inputs), whose resultants have tight root clusters, have their
verify pinned the same way, and so do two random masters of the corpus,
whose verify takes out two excluded roots over fibers that the first
subresultant does not separate (solver._only_excluded certifies them).
After a change meant to alter them, rewrite the pinned file with
``PYTHONPATH=src python tests/test_golden.py`` and review its diff.
"""

import contextlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest

from galedual.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
FIXTURES = ("example22_sparse", "example22_master", "example3_second")
CALLS = [(command, fixture, fmt) for command in ("dualize", "bound") for fixture in FIXTURES for fmt in ("json", "text")]
CLUSTERED = ("sparse-b19-1", "sparse-b19-2", "sparse-b13-9")
SHARED_FIBERS = ("master-b11-6", "master-b11-9")
EXACT_CALLS = [(command, fixture) for command in ("solve", "verify") for fixture in FIXTURES]
EXACT_CALLS += [("verify", name) for name in CLUSTERED + SHARED_FIBERS]


def run(command, fixture, fmt):
    if fixture in FIXTURES:
        path = str(files("galedual") / "fixtures" / f"{fixture}.json")
    else:
        path = str(Path(__file__).with_name("inputs") / f"{fixture}.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", path, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def exact_fields(command, fixture):
    """The platform-independent fields of a json solve or verify."""
    out = run(command, fixture, "json")
    data = json.loads(out.pop("stdout"))
    if command == "solve":
        exact = {key: data[key] for key in ("count", "real_count", "total_multiplicity", "diagnostics")}
        exact["solutions"] = [
            {key: s[key] for key in ("multiplicity", "is_real", "location", "flags")} for s in data["solutions"]
        ]
        exact["excluded"] = len(data["excluded"])
    else:
        keys = ("poly_count", "master_count", "unmatched_poly", "unmatched_master", "real_consistent",
                "bijective", "all_pass", "kouchnirenko_bound", "counts_match_bound")
        exact = {key: data[key] for key in keys}
        # pairs are listed by their float distance; the set of them is exact
        exact["pairs"] = sorted([p["poly_index"], p["master_index"], p["both_real"]] for p in data["pairs"])
    return {**out, "exact": exact}


@pytest.mark.parametrize("command, fixture, fmt", CALLS)
def test_fixture_output_is_pinned(command, fixture, fmt):
    pinned = json.loads(GOLDEN.read_text())
    assert run(command, fixture, fmt) == pinned[f"{command} {fixture} {fmt}"]


@pytest.mark.parametrize("command, fixture", EXACT_CALLS)
def test_fixture_exact_fields_are_pinned(command, fixture):
    pinned = json.loads(GOLDEN.read_text())
    assert exact_fields(command, fixture) == pinned[f"{command} {fixture} exact"]


if __name__ == "__main__":
    outputs = {" ".join(call): run(*call) for call in CALLS}
    outputs.update({f"{command} {fixture} exact": exact_fields(command, fixture) for command, fixture in EXACT_CALLS})
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
