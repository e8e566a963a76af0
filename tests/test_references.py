"""Every top-level function and class of the package, and every method, is
named somewhere in the code that runs it (src/, scripts/ and perfbench/,
its tests left out), or is allowed here with a reason.  The package's
__init__.py is left out too: its imports re-export names, they do not run
them, and test_public_names_are_pinned guards the exported names.  A method or property
counts only as an attribute (``x.name``): a variable of the same name does
not call it.  Code that only the tests call belongs in the tests."""

import ast
import glob
import os

from conftest import REPO_ROOT

RUN_CODE = ("src", "scripts", "perfbench")
PACKAGE_INIT = os.path.join(REPO_ROOT, "src", "haarrect", "__init__.py")

UNREFERENCED_ALLOWED = {
    "groupoids.FiniteGroupoid.from_products": "row input for local groupoids",
    "groupoids.validate_groupoid":
        "the axiom validator of acceptance criterion 8",
    "harness.GroupoidSpec": "found through _Spec.__subclasses__()",
    "harness.OutputSpec": "found through _Spec.__subclasses__()",
    "harness.recompute_pass_from_trace":
        "the README promises that a trace alone gives the pass flag",
    "holo.rotate": "the public action map; _node_mean repeats its "
                   "expression into arrays it reuses across nodes",
    "holo.sample_function": "the grid sampler; bench-holo reduces each "
                            "slab's samples and grids none",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _definitions(tree):
    """(qualified name, name, is a method) of the top-level functions and
    classes and of the methods; dunder methods are called by Python, not by
    name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True


def _references(tree):
    """(name, is an attribute) of each name read as a variable, an attribute
    or an import (docstrings and comments do not count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            for name in node.name.split("."):
                yield name, False


def _run_code_files():
    for top in RUN_CODE:
        for path in glob.glob(os.path.join(REPO_ROOT, top, "**", "*.py"),
                              recursive=True):
            if (path != PACKAGE_INIT and "tests"
                    not in os.path.relpath(path, REPO_ROOT).split(os.sep)):
                yield path


def test_every_package_name_is_referenced_by_the_code_that_runs():
    referenced = set()
    for path in _run_code_files():
        referenced.update(_references(_parse(path)))
    names = {name for name, _ in referenced}
    attributes = {name for name, is_attribute in referenced if is_attribute}
    unreferenced = []
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "haarrect", "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        unreferenced += [
            f"{module}.{qualified}"
            for qualified, name, method in _definitions(_parse(path))
            if name not in (attributes if method else names)]
    assert sorted(unreferenced) == sorted(UNREFERENCED_ALLOWED)
