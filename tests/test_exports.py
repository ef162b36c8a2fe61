"""Every name a module lists in ``__all__`` is defined in it."""

import importlib
import pkgutil

import pytest

import fgqa

# __main__ runs the command line when imported
MODULES = [m.name for m in pkgutil.iter_modules(fgqa.__path__) if m.name != "__main__"]
EXPORTS = [(module, name) for module in MODULES
           for name in importlib.import_module(f"fgqa.{module}").__all__]


def test_every_module_is_listed():
    assert set(MODULES) == {"annealing", "cells", "charging", "cli", "constants",
                            "decoherence", "tunneling"}


@pytest.mark.parametrize("module, name", EXPORTS)
def test_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"fgqa.{module}"), name)
