import importlib
import pkgutil

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
