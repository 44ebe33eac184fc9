"""The README's Python quick start imports only what the package exports,
and its CLI section documents exactly the options the parser takes."""

import argparse
import ast
import re
from pathlib import Path

import galedual
from galedual.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """Names the README's python blocks import from the galedual top level."""
    names = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "galedual":
                names.extend(alias.name for alias in node.names)
    return names


def test_readme_imports_are_exported():
    names = readme_imports()
    assert names, "the README quick start imports nothing from galedual"
    for name in names:
        assert name in galedual.__all__, name
        assert getattr(galedual, name, None) is not None, name


def test_exports_resolve():
    assert len(set(galedual.__all__)) == len(galedual.__all__)
    for name in galedual.__all__:
        assert getattr(galedual, name, None) is not None, name


def parser_options():
    """Every long option of every subcommand, --help aside."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        option
        for command in sub.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def test_readme_cli_flags_match_the_parser():
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(), re.S | re.M).group(1)
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    assert documented == parser_options()
