"""Every name a kgcavity module exports in ``__all__`` resolves, every
name a module imports is used, every public function has a reader, and
README's library quick start runs.

A deletion that leaves its name in an ``__all__`` list breaks
``from kgcavity import *`` and the documented surface; this catches it.
"""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
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


def _quick_start() -> str:
    """The python block of README's library quick start."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    """The documented library example runs as printed, and its first
    printed value is the <n_1> its comment quotes."""
    exec(compile(_quick_start(), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("0.053963")


# Public functions that neither the package nor README's quick start reads:
# the benchmark calls or traces each of them, so each stays until ROADMAP
# item 4 moves the benchmark onto the package's own spans.
_BENCHMARK_ONLY = ["clear_memo", "frequencies", "oracle_moments", "wick_moments"]


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _read_outside_own_def(tree: ast.Module) -> set[str]:
    """The names read in ``tree``, less a function's reads of itself."""
    reads = _reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            reads[node.name] -= _reads(node)[node.name]
    return {name for name, count in reads.items() if count > 0}


def test_every_public_function_has_a_reader():
    """A public function is read somewhere in the package or in README's
    quick start: the package ships what its commands and its documented
    example need, and the test-only oracles live in ``tests/oracles.py``."""
    sources = [p.read_text(encoding="utf-8") for p in Path(kgcavity.__file__).parent.glob("*.py")]
    read = set().union(*(_read_outside_own_def(ast.parse(text))
                         for text in sources + [_quick_start()]))
    unread = sorted(name for name in kgcavity.__all__
                    if inspect.isfunction(getattr(kgcavity, name)) and name not in read)
    assert unread == _BENCHMARK_ONLY
