"""Every module-level import of the package, the tests and the demos is
read, and every name of the package API has a caller outside the tests.

``msdstat/__init__.py`` is left out: its imports are the package API.
"""
import ast
import re
from pathlib import Path
from types import ModuleType

import msdstat

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(msdstat.__file__).resolve().parent
DEMOS = TESTS.parent / "demos"
BENCH = TESTS.parent / "bench"
README = TESTS.parent / "README.md"


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


def test_every_public_name_has_a_caller():
    # a reference is any whole-word use of the name other than the line
    # that defines it; bench/ is read as text, never imported
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(DEMOS.glob("*.py")) + sorted(BENCH.glob("*.py")) + [README]
    lines = [line for p in paths
             for line in p.read_text(encoding="utf-8").splitlines()]
    names = sorted(n for n, v in vars(msdstat).items()
                   if not n.startswith("_") and not isinstance(v, ModuleType))
    uncalled = []
    for name in names:
        used = re.compile(rf"\b{name}\b")
        defined = re.compile(rf"\s*(?:(?:def|class)\s+{name}\b|{name}\s*=)")
        if not any(used.search(line) and not defined.match(line)
                   for line in lines):
            uncalled.append(name)
    assert uncalled == []
