"""Every import of the package and of its tests is read, and every private
helper of the package is named somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("src/pe3d/*.py")) + sorted(ROOT.glob("tests/*.py"))

# Imports kept unread on purpose, by file: the name that the benchmark's
# tracer (bench/tracing.py) patches in tridiag.  The package's re-exports
# are read by their entries in ``__all__``.
KEPT = {"src/pe3d/tridiag.py": {"fork_join"}}


def unused_imports(path: Path) -> set:
    """The names that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_import(path):
    kept = KEPT.get(str(path.relative_to(ROOT)), set())
    unused = unused_imports(path)
    assert kept <= unused, "an allowed import is read: drop it from KEPT"
    assert sorted(unused - kept) == []


def private_definitions(path: Path) -> set:
    """The private functions and classes that ``path`` defines at module
    level."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def test_every_private_helper_is_named():
    # a helper folded into its caller cannot be left behind: each private
    # definition in src/pe3d is read, as a name or an attribute, by some
    # file of the package or its tests
    named = set()
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = [(str(path.relative_to(ROOT)), name)
               for path in sorted(ROOT.glob("src/pe3d/*.py"))
               for name in sorted(private_definitions(path))]
    assert defined, "no private helper found: the scan reads nothing"
    assert [(path, name) for path, name in defined if name not in named] == []
