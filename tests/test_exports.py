import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import watertank

MODULES = ["watertank"] + sorted(
    m.name
    for m in pkgutil.iter_modules(watertank.__path__, "watertank.")
    if m.name != "watertank.__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


SOURCES = sorted(Path(watertank.__file__).parent.glob("*.py")) + sorted(
    Path(__file__).parent.glob("*.py")
)


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads, apart from ``__all__`` exports."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_unused_import_check_flags_one():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math",
        "path",
    ]
