"""Every name a kgcavity module exports in ``__all__`` resolves.

A deletion that leaves its name in an ``__all__`` list breaks
``from kgcavity import *`` and the documented surface; this catches it.
"""

import importlib
import pkgutil

import pytest

import kgcavity

MODULES = ["kgcavity"] + [f"kgcavity.{info.name}"
                          for info in pkgutil.iter_modules(kgcavity.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
