"""Every module-level import of the package, the tests and the demos is
read.

``msdstat/__init__.py`` is left out: its imports are the package API.
"""
import ast
from pathlib import Path

import msdstat

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(msdstat.__file__).resolve().parent
DEMOS = TESTS.parent / "demos"


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py"))
    unread = {f"{p.parent.name}/{p.name}": names
              for p in paths if (names := _unread_imports(p))}
    assert unread == {}
