"""dualize and bound on the bundled fixtures, pinned byte for byte.

Both commands are exact (ints and Fractions throughout), so their stdout,
stderr and exit code do not depend on the platform, and a change that keeps
results must keep them. After a change meant to alter these outputs, rewrite
the pinned file with ``PYTHONPATH=src python tests/test_golden.py`` and
review its diff.
"""

import contextlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest

from galedual.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
CALLS = [
    (command, fixture, fmt)
    for command in ("dualize", "bound")
    for fixture in ("example22_sparse", "example22_master", "example3_second")
    for fmt in ("json", "text")
]


def run(command, fixture, fmt):
    path = str(files("galedual") / "fixtures" / f"{fixture}.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--input", path, "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("command, fixture, fmt", CALLS)
def test_fixture_output_is_pinned(command, fixture, fmt):
    pinned = json.loads(GOLDEN.read_text())
    assert run(command, fixture, fmt) == pinned[f"{command} {fixture} {fmt}"]


if __name__ == "__main__":
    outputs = {" ".join(call): run(*call) for call in CALLS}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
