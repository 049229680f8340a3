"""Route boundaries, read from each module's package-relative imports: the
closed forms that the verify suites and certificates compare against must
not share the symbolic code under test."""

import ast
import functools
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


POINTWISE_EVALUATORS = {"_compiled", "_run", "_pointwise", "evaluate_func"}


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
# checks, and the rows with their closed forms and the pieces they read
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
    "Pieces",
)


@functools.cache
def _top_level(module: str, package: Path = PACKAGE):
    """The functions, classes and assigned names of ``module``, each with its
    node, and its package-relative imports, each name as (module, name)."""
    tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
    defs = {
        node.name: node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assigned = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
    defs.update(
        (target.id, node) for node in assigned
        for target in getattr(node, "targets", None) or [node.target]
        if isinstance(target, ast.Name)
    )
    imported = {  # a module imported whole as (module, None)
        alias.asname or alias.name:
            (node.module.split(".")[0], alias.name) if node.module else (alias.name, None)
        for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    return defs, imported


# the nodes that open a scope of their own: their parameters, targets and
# stored names shadow the module's names inside them
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _bound(scope) -> set[str]:
    """The names that a function, lambda or comprehension binds in its own
    scope: parameters, targets, stored names and nested definitions."""
    names, todo = set(), list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return names


def _reads(node, bound=frozenset()):
    """(name, attribute) for each name that ``node`` loads from its module's
    scope, that is, not bound in a scope around the load; ``attribute`` is
    the attribute read from the name (``expr.name``), or None."""
    if isinstance(node, _SCOPES):
        bound = bound | _bound(node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in bound:
                yield child.id, node.attr if isinstance(node, ast.Attribute) else None
        else:
            yield from _reads(child, bound)


def _reached_modules(module: str, roots, package: Path = PACKAGE) -> set[str]:
    """The package modules whose imported names the functions, classes and
    assigned names ``roots`` of ``module`` reach: through the names their
    bodies and bases load, following the module's own top-level names."""
    defs, imported = _top_level(module, package)
    seen, todo, reached = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for read, _ in _reads(defs[name]):
            if read in defs:
                todo.append(read)
            elif read in imported:
                reached.add(imported[read][0])
    return reached


def _reached_names(module: str, roots, package: Path = PACKAGE) -> set[tuple[str, str]]:
    """Every (module, name) that the top-level names ``roots`` of ``module``
    reach, following the package's imports from module to module, and the
    attributes read from a module imported whole."""
    seen, todo = set(), [(module, root) for root in roots]
    while todo:
        module, name = todo.pop()
        if (module, name) in seen:
            continue
        seen.add((module, name))
        defs, imported = _top_level(module, package)
        if name not in defs:  # imported in turn from another package module
            todo.append(imported[name])
            continue
        for read, attribute in _reads(defs[name]):
            if read in defs:
                todo.append((module, read))
            elif read in imported:
                source, imported_name = imported[read]
                if imported_name or attribute:
                    todo.append((source, imported_name or attribute))
    return seen


# a package of three modules: ``a`` imports the function ``b.var`` and the
# module ``c``, and reaches each only where a name of its own scope is read
FIXTURE = {
    "a": """
from .b import var
from . import c


def shadowed_by_a_parameter(var):
    return var + 1


def shadowed_by_a_local():
    var = 2
    return [var for var in range(var)]


def through_a_module_attribute():
    return c.helper()


def through_a_comprehension():
    return [c for c in range(3)] + [var(i) for i in range(3)]
""",
    "b": "def var(i):\n    return i\n",
    "c": "def helper():\n    return 1\n",
}


@pytest.fixture
def fixture_package(tmp_path):
    for module, text in FIXTURE.items():
        (tmp_path / f"{module}.py").write_text(text, encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("root", ["shadowed_by_a_parameter", "shadowed_by_a_local"])
def test_a_parameter_or_local_is_not_a_reach_of_the_name_it_shadows(fixture_package, root):
    assert _reached_modules("a", [root], fixture_package) == set()
    assert _reached_names("a", [root], fixture_package) == {("a", root)}


def test_a_module_attribute_is_a_reach_of_that_module(fixture_package):
    root = "through_a_module_attribute"
    assert _reached_modules("a", [root], fixture_package) == {"c"}
    assert ("c", "helper") in _reached_names("a", [root], fixture_package)


def test_a_comprehension_variable_shadows_only_inside_it(fixture_package):
    root = "through_a_comprehension"
    assert _reached_modules("a", [root], fixture_package) == {"b"}
    assert _reached_names("a", [root], fixture_package) == {("a", root), ("b", "var")}


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


def test_influence_walk_shares_nothing_with_the_derivation():
    """The certificate's influence of psi is a compiled run of ``expr`` over
    the Duals of ``measure``: no function it reaches derives or normalizes,
    so the gradient it is compared with is computed apart."""
    route = ["_influence", "_influences"]
    assert _reached_modules("eic", route) == {"expr", "measure"}
    reached = {name for _, name in _reached_names("eic", route)}
    assert {"_compiled", "_run", "Dual"} <= reached
    assert not reached & {"_gradient", "derive_eic", "normalize_functional"}


def test_name_reader_follows_imports_across_modules():
    """``derive_eic`` reaches the normalizer in ``canon`` and the rules in
    ``eic``; the brackets' symbolic model reaches it through ``eic``."""
    assert {("canon", "normalize_functional"), ("eic", "_gradient")} <= _reached_names(
        "eic", ["derive_eic"]
    )
    assert ("eic", "derive_eic") in _reached_names("brackets", ["Symbolic"])


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
