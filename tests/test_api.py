"""Public-name tests: every ``__all__`` entry exists and the package root re-exports only them.

Tools that walk a module's ``__all__`` (the benchmark tracer wraps each listed
function) fail on a stale entry, so a removed name must leave ``__all__`` too.
"""
import ast
import importlib
from pathlib import Path

import pytest

import ajscc

MODULES = ("mapping", "circuit", "signal_chain", "multisensor", "metrics", "experiments")


@pytest.mark.parametrize("short", MODULES)
def test_every_all_entry_resolves(short):
    module = importlib.import_module(f"ajscc.{short}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _root_imports() -> dict[str, list[str]]:
    """Names the package root imports, by the module they come from."""
    tree = ast.parse(Path(ajscc.__file__).read_text())
    imports: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(a.name for a in node.names)
    return imports


def test_root_imports_only_listed_names():
    imports = _root_imports()
    assert sorted(imports) == sorted(MODULES)
    for short, names in imports.items():
        listed = importlib.import_module(f"ajscc.{short}").__all__
        assert [name for name in names if name not in listed] == [], short
