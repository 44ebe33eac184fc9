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
Every verify input of both benchmark corpora (bench/corpus.py, read from the
checkout as tests/test_trace_boundaries.py reads bench/spans.py) has its
verify pinned too, one line each in golden_corpus.json, failures included:
an exit code and its stderr, or the exception that escapes main. The
corpus's verify inputs do not change with its seed, so seed 1's are all of
them. Every structure_highdim instance of seed 1 has its exit code and the
sha256 of its stdout pinned in golden_highdim.json: dualize and bound in 2
to 4 variables, and the round trips, whose input is the master of an
earlier dualize's output as the corpus derives it. After a change meant to
alter them, rewrite the pinned files with
``PYTHONPATH=src python tests/test_golden.py`` and review their diff.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest

from galedual.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
CORPUS_GOLDEN = Path(__file__).with_name("golden_corpus.json")
HIGHDIM_GOLDEN = Path(__file__).with_name("golden_highdim.json")
CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
FIXTURES = ("example22_sparse", "example22_master", "example3_second")
CALLS = [(command, fixture, fmt) for command in ("dualize", "bound") for fixture in FIXTURES for fmt in ("json", "text")]
CLUSTERED = ("sparse-b19-1", "sparse-b19-2", "sparse-b13-9")
SHARED_FIBERS = ("master-b11-6", "master-b11-9")
EXACT_CALLS = [(command, fixture) for command in ("solve", "verify") for fixture in FIXTURES]
EXACT_CALLS += [("verify", name) for name in CLUSTERED + SHARED_FIBERS]


def load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclass looks its module up there
    spec.loader.exec_module(corpus)
    return corpus


CORPUS_MODULE = load_corpus()
# {instance id: input} of every verify instance of both benchmark corpora
CORPUS_INPUTS = {
    inst.iid: inst.payload
    for workload in ("verify_sparse_origin", "verify_master_origin")
    for inst in CORPUS_MODULE.build(workload, 1)
}
HIGHDIM = CORPUS_MODULE.build("structure_highdim", 1)


def run(command, fixture, fmt, path=None):
    if path is None and fixture in FIXTURES:
        path = files("galedual") / "fixtures" / f"{fixture}.json"
    elif path is None:
        path = Path(__file__).with_name("inputs") / f"{fixture}.json"
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path), "--format", fmt])
    except ValueError as exc:  # escapes main on master-b1-8 and master-b1-10 (ROADMAP item 2)
        code = f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def exact_fields(command, fixture, path=None):
    """The platform-independent fields of a json solve or verify; without
    output, the exit and stderr alone."""
    out = run(command, fixture, "json", path)
    stdout = out.pop("stdout")
    if not stdout:
        return out
    data = json.loads(stdout)
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


def corpus_exact_fields(iid, directory):
    path = Path(directory) / f"{iid}.json"
    path.write_text(json.dumps(CORPUS_INPUTS[iid]))
    return exact_fields("verify", iid, path)


@pytest.mark.parametrize("iid", sorted(CORPUS_INPUTS))
def test_corpus_verify_exact_fields_are_pinned(iid, tmp_path):
    pinned = json.loads(CORPUS_GOLDEN.read_text())
    assert corpus_exact_fields(iid, tmp_path) == pinned[iid]


@functools.cache
def highdim_outputs():
    """{instance id: exit and stdout sha256} of every structure_highdim
    instance of seed 1, run in corpus order so that a derived instance can
    read its input off its source's output."""
    outputs, stdouts = {}, {}
    with tempfile.TemporaryDirectory() as directory:
        for inst in HIGHDIM:
            source, key = inst.derive or (None, None)
            payload = inst.payload if source is None else json.loads(stdouts[source])[key]
            path = Path(directory) / f"{inst.iid}.json"
            path.write_text(json.dumps(payload))
            out = run(inst.command, inst.iid, "json", path)
            stdouts[inst.iid] = out["stdout"]
            outputs[inst.iid] = {"exit": out["exit"], "stdout_sha256": hashlib.sha256(out["stdout"].encode()).hexdigest()}
    return outputs


@pytest.mark.parametrize("iid", [inst.iid for inst in HIGHDIM])
def test_highdim_output_is_pinned(iid):
    pinned = json.loads(HIGHDIM_GOLDEN.read_text())
    assert highdim_outputs()[iid] == pinned[iid]


def pinned_lines(pinned):
    return "{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in pinned) + "\n}\n"


if __name__ == "__main__":
    outputs = {" ".join(call): run(*call) for call in CALLS}
    outputs.update({f"{command} {fixture} exact": exact_fields(command, fixture) for command, fixture in EXACT_CALLS})
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as directory:
        CORPUS_GOLDEN.write_text(pinned_lines((iid, corpus_exact_fields(iid, directory)) for iid in sorted(CORPUS_INPUTS)))
    HIGHDIM_GOLDEN.write_text(pinned_lines(sorted(highdim_outputs().items())))
