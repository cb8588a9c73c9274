"""Every name in a module's export list exists, so a deleted name cannot
linger in an ``__all__``."""

import importlib
import pkgutil

import edue


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(edue.__path__):
        module = importlib.import_module(f"edue.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"edue.{info.name}.__all__ lists missing names {missing}"
