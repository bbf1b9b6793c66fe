"""Every module-level `_private` function, class or constant of the package
is used: referenced in src/dtsnn or bench/ somewhere besides its own
definition, and so is every method of the package's classes but dunders:
read as an attribute there outside its own body.  Tests do not count: a
helper only they call is dead code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dtsnn").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def private_definitions(path, tree):
    """{name: (path, first line, last line)} of tree's module-level _private
    functions, classes and assigned names."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = (path, node.lineno, node.end_lineno)
    return found


def method_definitions(path, tree):
    """{class.method: (path, first line, last line)} of the methods of
    tree's classes, but dunders."""
    return {f"{node.name}.{item.name}": (path, item.lineno, item.end_lineno)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))}


def references(path, tree):
    """(name, path, line) of every name tree reads, as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, path, node.lineno


TREES = {path: ast.parse(path.read_text()) for path in USERS}
DEFINED = {name: where for path in SOURCES for name, where in
           private_definitions(path, TREES[path]).items()}
REFERENCES = [ref for path, tree in TREES.items() for ref in references(path, tree)]
METHODS = {name: where for path in SOURCES for name, where in
           method_definitions(path, TREES[path]).items()}
ATTRIBUTES = [(node.attr, path, node.lineno) for path, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def used(name, where, refs=REFERENCES):
    path, first, last = where
    return any(ref == name and not (ref_path == path and first <= line <= last)
               for ref, ref_path, line in refs)


def test_the_scan_finds_private_names():
    assert {"_col2im", "_lif_update", "_hold_lock"} <= DEFINED.keys()


def test_every_private_name_is_used_outside_its_definition():
    unused = sorted(f"{where[0].name}:{name}" for name, where in DEFINED.items()
                    if not used(name, where))
    assert unused == []


def test_the_scan_finds_methods():
    assert {"Workspace.lay_out", "StepBuffers.program", "NetworkSpec.layer_plan"} <= METHODS.keys()
    assert not any(name.endswith("__init__") for name in METHODS)


def test_every_method_is_read_as_an_attribute_outside_its_body():
    unused = sorted(f"{where[0].name}:{name}" for name, where in METHODS.items()
                    if not used(name.rpartition(".")[2], where, ATTRIBUTES))
    assert unused == []
