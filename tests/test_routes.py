"""Route boundaries, read from each module's package-relative imports: the
closed forms that the verify suites and certificates compare against must
not share the symbolic code under test."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eicalg"


def _package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, at any depth of its body."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("errors", set()),
        ("numerals", {"errors"}),
        ("measure", {"errors", "numerals"}),
        ("sampling", {"errors", "measure", "numerals"}),
    ],
)
def test_lower_layers_import_only_below_them(module, allowed):
    assert _package_imports(module) <= allowed


def test_verify_closed_forms_stay_vector_arithmetic():
    assert "canon" not in _package_imports("verify")


def test_reader_finds_top_level_and_deferred_imports():
    """``cli`` imports ``errors`` at the top and ``verify`` inside a command."""
    assert {"errors", "verify"} <= _package_imports("cli")
