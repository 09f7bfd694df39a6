"""The package's public surface."""
import runpy
from pathlib import Path

import pytest

import factorspec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_public_name_resolves():
    missing = [name for name in factorspec.__all__ if not hasattr(factorspec, name)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    """Loading a demo without running its main() fails on any name it
    imports that the package no longer has."""
    namespace = runpy.run_path(str(path), run_name="demo")
    assert callable(namespace["main"])
