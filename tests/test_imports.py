"""Every imported name is read: an ast scan of the package and the tests."""

import ast
from pathlib import Path

REPO = Path(__file__).parent.parent
MODULES = sorted([*(REPO / "src" / "seanode").glob("*.py"), *(REPO / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads. A name listed in __all__
    counts as read; an import on a line marked `# noqa: F401` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                            if "# noqa: F401" not in lines[alias.lineno - 1])
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in (
                t.id for t in node.targets if isinstance(t, ast.Name)):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read - {"*"})


def test_unused_imports_scan():
    source = ("import os.path\nimport re\nfrom a import b as c, d\n"
              "from e import f  # noqa: F401\n__all__ = ['d']\nos.sep\n")
    assert unused_imports(source) == ["c", "re"]


def test_every_imported_name_is_read():
    unused = {str(p.relative_to(REPO)): names for p in MODULES
              if (names := unused_imports(p.read_text()))}
    assert unused == {}


def private_names(source: str) -> set[str]:
    """The _names source defines at module level (a function, a class or an
    assignment's target), dunders aside."""
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in defined if name.startswith("_") and not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """The names source reads, as a name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_private_names_scan():
    source = ("def _f(): return _g\n_g = 1\n_h, (_i, j) = 2, (3, 4)\n_k: int = 5\n"
              "class _C: pass\n__all__ = []\n_h.x = m._i\n")
    assert private_names(source) == {"_f", "_g", "_h", "_i", "_k", "_C"}
    assert private_names(source) - read_names(source) == {"_f", "_k", "_C"}


def test_every_private_module_name_in_src_is_read():
    sources = [p.read_text() for p in (REPO / "src" / "seanode").glob("*.py")]
    read = set().union(*map(read_names, sources))
    assert set().union(*map(private_names, sources)) - read == set()
