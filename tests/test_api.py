"""Every public name of the package has a caller in the package itself.

A public module-level function or class, or a public method, that no
line of `src/lbandsm` names is API kept alive by tests alone. The names
allowed below are kept on purpose, each for the reason given.
"""

import ast
from pathlib import Path

import lbandsm

PACKAGE = Path(lbandsm.__file__).resolve().parent

# name -> why it stays without a caller in the package
ALLOWED = {
    "emissivity_evaluator": "the benchmark's kernel pass times it",
    "mironov_eps": "its permittivity fixtures check eps itself, which "
                   "soil_emissivity_pair (it takes sm) cannot reach",
    "topp_eps": "its permittivity fixtures check eps itself, which "
                "soil_emissivity_pair (it takes sm) cannot reach",
    "fresnel_power": "the Fresnel checks at arbitrary eps (Brewster null, random "
                     "eps, impedance oracle) cannot go through sm",
    "generate_campaign": "the fixture campaign of the tests and the benchmark",
}


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_definitions(tree):
    """(qualified name, name) of each public module-level function or
    class and each public method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _loaded_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_has_a_caller_in_the_package():
    trees = _trees()
    used = {name for tree in trees.values() for name in _loaded_names(tree)}
    unused = sorted(f"{module}:{qualname}" for module, tree in trees.items()
                    for qualname, name in _public_definitions(tree)
                    if name not in used and name not in ALLOWED)
    assert unused == []


def test_each_allowed_name_is_defined_and_has_no_caller():
    """An allowed name that gains a caller, or goes, leaves the list."""
    trees = _trees()
    used = {name for tree in trees.values() for name in _loaded_names(tree)}
    defined = {name for tree in trees.values() for _, name in _public_definitions(tree)}
    assert sorted(name for name in ALLOWED if name not in defined or name in used) == []
