"""numpy is loaded only by the commands that solve.

dualize and bound are exact, so they must run where numpy is missing and
leave it unloaded where it is installed. galedual.roots, the float tier, is
the only module that imports numpy at module level; solver imports it, and
roots, inside the functions that compute in floats.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "galedual"
GOLDEN = Path(__file__).with_name("golden_outputs.json")


def run_child(code):
    """The JSON that a fresh interpreter prints after running code, with the
    package imported from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_commands_run_without_numpy():
    # numpy None in sys.modules makes every import of it raise ImportError
    outputs = run_child(
        """
import contextlib, io, json, pkgutil, sys
sys.modules["numpy"] = None
import galedual
from galedual.cli import main
for module in pkgutil.iter_modules(galedual.__path__):
    if module.name != "roots":
        __import__(f"galedual.{module.name}")
from importlib.resources import files
outputs = {}
for command in ("dualize", "bound"):
    for fixture in ("example22_sparse", "example22_master", "example3_second"):
        for fmt in ("json", "text"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(files("galedual") / "fixtures" / f"{fixture}.json"), "--format", fmt])
            outputs[f"{command} {fixture} {fmt}"] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
print(json.dumps(outputs))
"""
    )
    golden = json.loads(GOLDEN.read_text())
    assert len(outputs) == 12
    for key, output in outputs.items():
        assert output == golden[key], key


def test_only_solving_loads_numpy():
    loaded = run_child(
        """
import contextlib, io, json, sys
import galedual, galedual.cli
from importlib.resources import files
fixture = str(files("galedual") / "fixtures" / "example22_sparse.json")
loaded = {"import": "numpy" in sys.modules}
for command in ("bound", "dualize", "solve"):
    with contextlib.redirect_stdout(io.StringIO()):
        galedual.cli.main([command, "--input", fixture])
    loaded[command] = "numpy" in sys.modules
print(json.dumps(loaded))
"""
    )
    assert loaded == {"import": False, "bound": False, "dualize": False, "solve": True}


def module_level_imports(tree):
    """The modules that the import statements of a module's body name, not
    counting those inside functions; class bodies run at import time too."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        pending.extend(ast.iter_child_nodes(node))


def test_only_roots_imports_numpy_at_module_level():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set(module_level_imports(ast.parse(path.read_text(), filename=str(path))))
        if path.stem != "roots" and any(name.split(".")[0] == "numpy" for name in names):
            found[path.name] = sorted(names)
    assert found == {}, f"numpy imported at module level by: {found}"
    roots = set(module_level_imports(ast.parse((PACKAGE / "roots.py").read_text())))
    assert "numpy" in roots, "module_level_imports no longer sees the import in roots"
