"""Public-surface hygiene: every exported name resolves, and no module
imports a name it never uses.  Standard library only."""

import ast
import importlib
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ntklab")
MODULES = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        return ast.parse(fh.read())


def test_all_names_resolve():
    for module in MODULES:
        mod = importlib.import_module(f"ntklab.{module}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"ntklab.{module}.__all__ names {name!r}"


def test_package_reexports_resolve():
    package = importlib.import_module("ntklab")
    for node in ast.walk(_tree("__init__")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = importlib.import_module(f"ntklab.{node.module}")
            for alias in node.names:
                assert getattr(package, alias.asname or alias.name) is \
                    getattr(source, alias.name), alias.name


def _imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_no_unused_imports():
    unused = []
    for module in MODULES:
        if module == "__init__":
            continue                  # the package namespace re-exports
        tree = _tree(module)
        used = _used_names(tree)
        unused += [f"{module}.py:{line} imports {name}"
                   for name, line in _imported_names(tree).items()
                   if name not in used]
    assert not unused, "\n".join(unused)


# Exported names that nothing in src/ calls, each with the reason it stays.
UNCALLED_EXPORTS = {
    # the reader of the checkpoint.txt that `ntklab train` writes; its
    # round-trip tests are what check the writer
    "training.load_checkpoint",
}


def _references(module):
    """Every name ``module`` reads, as a bare name or an attribute, except
    the reads inside the top-level definition of that same name."""
    refs = set()
    for top in _tree(module).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                here.add(node.id)
            elif isinstance(node, ast.Attribute):
                here.add(node.attr)
        here.discard(getattr(top, "name", None))
        refs |= here
    return refs


def test_every_exported_name_has_a_caller():
    # __init__ only re-exports; a name's own definition and its __all__
    # entry are not reads of it
    modules = [m for m in MODULES if m != "__init__"]
    referenced = set().union(*map(_references, modules))
    uncalled = []
    for module in modules:
        exported = getattr(importlib.import_module(f"ntklab.{module}"),
                           "__all__", ())
        uncalled += [f"{module}.{name}" for name in exported
                     if name not in referenced]
    assert sorted(uncalled) == sorted(UNCALLED_EXPORTS)
