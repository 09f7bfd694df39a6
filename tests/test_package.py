"""The package's public surface."""
import argparse
import ast
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import factorspec
from factorspec import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(factorspec.__file__).resolve().parent
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


def test_readme_quick_start_runs():
    """The python block of the README's "Library quick start" runs as
    written and finds the two planted factors."""
    section = (ROOT / "README.md").read_text().split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["result"].p_hat == 2


class _References(ast.NodeVisitor):
    """Private function and method definitions in a module, and the names
    and attributes referenced outside the body of the function they name."""

    def __init__(self):
        self.defined, self.used, self.enclosing = set(), set(), []

    def visit_FunctionDef(self, node):
        if node.name.startswith("_") and not node.name.startswith("__"):
            self.defined.add(node.name)
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def _use(self, name):
        if name not in self.enclosing:
            self.used.add(name)


def test_no_private_helper_is_dead():
    """Every private function or method of the package is referenced in the
    package, other than from its own body: tests alone do not keep one."""
    refs = _References()
    for path in sorted(PACKAGE.glob("*.py")):
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    assert sorted(refs.defined - refs.used) == []


NO_SCIPY_DETECT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import factorspec, factorspec.cli
code = factorspec.cli.main(
    ["detect", "--case", "case1", "--runs", "1", "--stride", "50", "--output-dir", sys.argv[1]]
)
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else code)
"""


def test_runs_without_scipy(tmp_path):
    """The package needs numpy only: with scipy unimportable, a fresh
    interpreter imports it and runs a detect to completion."""
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_DETECT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report.json").is_file()


NO_POLYNOMIAL_WINDOW = """
import sys
import numpy as np
import factorspec.cli
from factorspec import ModelDensityCache, RawWindow, SearchGrid, estimate_window, standardize
x = np.random.default_rng(0).normal(size=(118, 250))
estimate_window(standardize(RawWindow(x, 250)), SearchGrid(), ModelDensityCache())
loaded = sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))
sys.exit(f"numpy.polynomial modules loaded: {loaded}" if loaded else 0)
"""


def test_a_window_loads_no_numpy_polynomial():
    """A fresh interpreter that imports the CLI, builds and bins the model
    curves on a fresh cache and scores one 118 x 250 window loads no module
    of numpy.polynomial (scipy, loaded under pytest, may load it itself)."""
    done = subprocess.run(
        [sys.executable, "-c", NO_POLYNOMIAL_WINDOW],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1"},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr + done.stdout
