"""Every name the package exports has a caller outside the tests.

A public function that only its own tests call is code to delete, and one
that only its own module calls should be private.  So each exported
function must be used by another module of the package, a demo or the
benchmark; each other export (a class, the preset table) by any of them,
its own module included, since the public functions there return it.
Like test_imports.py, this is a stdlib ast check.
"""

import ast
import inspect
from pathlib import Path

import nuframes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nuframes"
CALLERS = [
    *(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "demos").glob("*.py"),
    *(ROOT / "benchmarks").glob("*.py"),
]


def _used_names(path: Path) -> set:
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    used = {path: _used_names(path) for path in CALLERS}
    unused = []
    for name in sorted(set(nuframes.__all__) - {"__version__"}):
        obj = getattr(nuframes, name)
        home = None
        if inspect.isfunction(obj):
            home = PACKAGE / f"{obj.__module__.rsplit('.', 1)[-1]}.py"
        if not any(name in names for path, names in used.items() if path != home):
            unused.append(name)
    assert not unused, f"exported, but no caller outside the tests: {unused}"
