import ast
import importlib
import pkgutil
import re
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


# Exported names no pipeline stage reads, each with its reason.
UNREAD_EXPORTS = {
    "build_transform": "the paper's backstepping transform, not yet reported by any stage",
}
PERFBENCH = Path(watertank.__file__).parents[2] / "perfbench"


def _reads(tree) -> set:
    """``(name, owners)`` for every Name or Attribute read, with its enclosing defs."""
    out = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add((node.id, owners))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add((node.attr, owners))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return out


def _unread_exports(src_dir: Path, bench_text: str) -> list:
    """``module.name`` for each ``__all__`` name nothing in ``src_dir`` reads.

    A read inside the name's own definition does not count; a name that
    appears in ``bench_text`` does.
    """
    reads, exported = set(), []
    for path in sorted(src_dir.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads |= _reads(tree)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported += [(path.stem, n) for n in ast.literal_eval(node.value)]
    return [
        f"{mod}.{name}"
        for mod, name in exported
        if not any(n == name and name not in owners for n, owners in reads)
        and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    ]


def test_every_export_is_read():
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.rglob("*.py")))
    unread = _unread_exports(Path(watertank.__file__).parent, bench)
    unlisted = [n for n in unread if n.split(".")[1] not in UNREAD_EXPORTS]
    assert not unlisted, f"exported but read by no stage or benchmark: {unlisted}"
    stale = set(UNREAD_EXPORTS) - {n.split(".")[1] for n in unread}
    assert not stale, f"listed as unread but read now: {sorted(stale)}"


def test_unread_export_check_flags_one(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["f", "g", "h"]\n\ndef f():\n    return f()\n\ndef g():\n    pass\n\ndef h():\n    return g()\n'
    )
    assert _unread_exports(tmp_path, "bench calls h") == ["a.f"]


# Calls that reach the filesystem; only ``cli.main``'s writer may make them.
FILESYSTEM_CALLS = {"open", "mkdir", "dump", "write_text", "_write_csv", "_write"}


def _filesystem_calls(source: str) -> list:
    """``cmd_name: call`` for each filesystem call inside a top-level ``cmd_*`` function."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    f = call.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in FILESYSTEM_CALLS:
                        out.append(f"{node.name}: {name}")
    return out


def test_commands_write_no_files():
    # each command returns its files; main alone makes the outdir and writes them
    calls = _filesystem_calls((Path(watertank.__file__).parent / "cli.py").read_text())
    assert not calls, f"commands that touch the filesystem: {calls}"


def test_filesystem_call_check_flags_one():
    source = ("def cmd_a(cfg):\n    json.dump({}, fh)\n    return {}\n\n"
              "def cmd_b(cfg):\n    return {}\n\ndef main():\n    out.mkdir()\n")
    assert _filesystem_calls(source) == ["cmd_a: dump"]


def _attribute_stores(source: str) -> list:
    """``cmd_name: x.y`` for each attribute a top-level ``cmd_*`` function assigns to."""
    return [
        f"{node.name}: {ast.unparse(target)}"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
        for target in ast.walk(node)
        if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
    ]


def test_commands_mutate_no_objects():
    # a command builds its values whole (a law file is read into a new law), never patches one
    stores = _attribute_stores((Path(watertank.__file__).parent / "cli.py").read_text())
    assert not stores, f"commands that assign to an attribute: {stores}"


def test_attribute_store_check_flags_one():
    source = ("def cmd_a(cfg):\n    law = make()\n    law.table = cfg.t\n    return law\n\n"
              "def cmd_b(cfg):\n    obj.n += 1\n    x = obj.n\n\ndef main():\n    out.name = 1\n")
    assert _attribute_stores(source) == ["cmd_a: law.table", "cmd_b: obj.n"]


def _to_dict_classes(source: str) -> list:
    """Each class in ``source`` that defines ``to_dict``: documents are built in ``cli``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "to_dict" for f in node.body)
    ]


def test_no_class_formats_a_document():
    # cli builds every JSON document; a result object holds only values
    src = sorted(Path(watertank.__file__).parent.glob("*.py"))
    found = [f"{p.stem}.{c}" for p in src for c in _to_dict_classes(p.read_text())]
    assert not found, f"classes that build their own document: {found}"


def test_to_dict_check_flags_one():
    source = ("class A:\n    def to_dict(self):\n        return {}\n\n"
              "class B:\n    def as_row(self):\n        return []\n\ndef to_dict():\n    return {}\n")
    assert _to_dict_classes(source) == ["A"]


# The Filon–Magnus march has one driver: only ``spectral.shoot`` builds step tables and marches them.
MARCH_CALLS = {"step_tables", "march"}


def _march_callers(source: str) -> list:
    """``def: call`` for each call of a march primitive, named by the top-level def that holds it."""
    return sorted({
        f"{getattr(top, 'name', '<module>')}: {name}"
        for top in ast.parse(source).body
        for call in ast.walk(top)
        if isinstance(call, ast.Call)
        and (name := getattr(call.func, "id", getattr(call.func, "attr", None))) in MARCH_CALLS
    })


def test_one_march_driver():
    # the search, the store pass and the Lyapunov weight all stream through shoot
    src = sorted(Path(watertank.__file__).parent.glob("*.py"))
    calls = [f"{p.stem}.{c}" for p in src for c in _march_callers(p.read_text())]
    assert calls == ["spectral.shoot: march", "spectral.shoot: step_tables"], calls


def test_march_caller_check_flags_one():
    source = ("def shoot(p):\n    P = step_tables(p)\n    return march(P)\n\n"
              "def store(p):\n    def marched():\n        return spectral.march(p)\n    return marched\n\n"
              "def other(p):\n    return shoot(p)\n")
    assert _march_callers(source) == ["shoot: march", "shoot: step_tables", "store: march"]
