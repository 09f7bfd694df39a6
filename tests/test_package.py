"""The package's public surface."""
import argparse
import re
import runpy
from pathlib import Path

import pytest

import factorspec
from factorspec import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in factorspec.__all__ if not hasattr(factorspec, name)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """Loading a demo without running its main() fails on any name it
    imports that the package no longer has."""
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])


def test_readme_cli_flags_exist():
    """Every --flag in the README's "Command line" section is an option of
    the subcommand last named before it, as `factorspec <command>` or in
    backticks."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    parser = cli._build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = "|".join(commands.choices)
    command, unknown = None, []
    for m in re.finditer(rf"(?:factorspec |`)({names})\b|(--[a-z][a-z-]*)", section):
        if m[1]:
            command = m[1]
        elif command is None or m[2] not in commands.choices[command]._option_string_actions:
            unknown.append((command, m[2]))
    assert command is not None
    assert unknown == []
