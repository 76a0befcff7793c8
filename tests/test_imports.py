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
