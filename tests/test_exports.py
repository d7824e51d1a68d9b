"""Every name a kgcavity module exports in ``__all__`` resolves.

A deletion that leaves its name in an ``__all__`` list breaks
``from kgcavity import *`` and the documented surface; this catches it.
"""

import importlib
import inspect
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


def test_no_public_callable_takes_a_frequency_table():
    """Frequencies come from (cfg, region) via ``ladder``; ``build_block``
    keeps an ignored ``tables`` argument for positional callers."""
    takers = sorted(name for name in kgcavity.__all__
                    if callable(obj := getattr(kgcavity, name)) and not isinstance(obj, type)
                    and "tables" in inspect.signature(obj).parameters)
    assert takers == ["build_block"]
