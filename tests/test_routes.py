"""Route boundaries, read from each module's package-relative imports: the
closed forms that the verify suites and certificates compare against must
not share the symbolic code under test."""

import ast
import os
import subprocess
import sys
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


POINTWISE_EVALUATORS = {"_value", "_pointwise", "evaluate_func"}


def _names(module: str) -> set[str]:
    """Every name ``module`` imports, loads or reads as an attribute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names |= {node.name, node.asname}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", ["estimate", "mc"])
def test_table_route_names_no_pointwise_evaluator(module):
    """``estimate`` and ``simulate`` value laws by compiled programs, so the
    pointwise oracles of the tests compare two routes that share no
    evaluator."""
    assert "to_float" in _names(module)  # the reader sees imported names
    assert not _names(module) & POINTWISE_EVALUATORS


def test_reader_finds_top_level_and_deferred_imports():
    """``cli`` imports ``errors`` at the top and ``verify`` inside a command."""
    assert {"errors", "verify"} <= _package_imports("cli")


# the numeric model, the nine bracket functions, the model of the numeric
# checks, and the rows with their closed forms and the forms' kept means
NUMERIC_ROUTE = (
    "Numeric",
    "bracket_P_prod",
    "bracket_prod_T",
    "bracket_T_P",
    "nested_T_P_prod",
    "nested_P_prod_T",
    "nested_prod_T_P",
    "jacobi_sum",
    "corollary_leibniz",
    "corollary_cov",
    "BracketFunctions",
    "identities",
    "Row",
    "Means",
    "_centered",
    "_covariance",
)


def _reached_modules(module: str, roots) -> set[str]:
    """The package modules whose imported names the functions and classes
    ``roots`` of ``module`` reach: through the names their bodies and bases
    load, following the module's own functions and classes."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    imported = {
        alias.asname or alias.name: node.module.split(".")[0]
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    seen, todo, reached = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                if node.id in defs:
                    todo.append(node.id)
                elif node.id in imported:
                    reached.add(imported[node.id])
    return reached


def test_numeric_bracket_route_reaches_no_symbolic_module():
    """The numeric route and the closed forms use ``measure`` and the
    ``sampling`` formatter only."""
    assert _reached_modules("brackets", NUMERIC_ROUTE) == {"measure", "sampling"}


def test_verify_numeric_checks_reach_only_the_numeric_route():
    """The row checks take their model from ``brackets`` and their means
    from ``measure``."""
    assert _reached_modules("verify", ["_rows_hold"]) == {"brackets", "measure"}


def test_route_reader_follows_the_symbolic_model():
    assert {"eic", "expr"} <= _reached_modules("brackets", ["Symbolic"])


def _derive_calls(statements: str) -> str:
    """The number of ``derive_eic`` calls that ``statements`` make in a fresh
    interpreter, counted from before any module that calls it is imported."""
    script = (
        "import eicalg.eic as eic\n"
        "calls, derive = [], eic.derive_eic\n"
        "eic.derive_eic = lambda *args, **kw: calls.append(args) or derive(*args, **kw)\n"
        f"{statements}\n"
        "print(len(calls))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_importing_brackets_derives_nothing():
    assert _derive_calls("import eicalg.brackets") == "0"


@pytest.mark.parametrize(
    "suite, derives", [("decomposition", False), ("eic-certificates", True), ("lemma", True)]
)
def test_a_verify_call_derives_only_for_its_suites(suite, derives):
    """Symbolic records are built only for a suite that reports them; the
    certificates derive their gradients."""
    statements = (
        "import contextlib, io\n"
        "from eicalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['verify', '{suite}', '--trials', '2']) == 0"
    )
    assert (_derive_calls(statements) != "0") == derives
