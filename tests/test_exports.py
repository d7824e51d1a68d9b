"""Every name a kgcavity module exports in ``__all__`` resolves, and every
name a module imports is used.

A deletion that leaves its name in an ``__all__`` list breaks
``from kgcavity import *`` and the documented surface; this catches it.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


def test_region_is_one_object_everywhere():
    """``Region`` lives in ``config``, and the package re-exports it."""
    import kgcavity.config
    import kgcavity.modes

    assert kgcavity.modes.Region is kgcavity.config.Region is kgcavity.Region


def _imported_names(tree: ast.Module) -> list[str]:
    """The names the module's import statements bind, ``__future__`` and
    wildcards aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
    return names


@pytest.mark.parametrize("name", [m for m in MODULES if m != "kgcavity"])
def test_every_imported_name_is_used_or_exported(name):
    """No linter runs on the package; this is its unused-import check. The
    package ``__init__`` only re-publishes, so it is not scanned."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = getattr(module, "__all__", [])
    unused = [n for n in _imported_names(tree) if n not in used and n not in exported]
    assert unused == []
