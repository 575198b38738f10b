"""Every module-level import in `src/` and `tests/` is read by its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing in it reads.

    `from __future__` imports and the names listed in `__all__` are exempt.
    """
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_the_scan_finds_an_unread_import_and_passes_a_read_one():
    assert _unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]
    assert _unused_imports("from a.b import c as d\nx = 1\n") == [(1, "d")]
    assert _unused_imports("import a.b\na.b.f()\n") == []
    assert _unused_imports("from __future__ import annotations\n") == []
    assert _unused_imports("from .m import f\n__all__ = ['f']\n") == []
    # a name only stored to is not read
    assert _unused_imports("import os\nos = 1\n") == [(1, "os")]


def test_no_module_imports_a_name_it_never_reads():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        unused = _unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
