"""Public-name tests: every ``__all__`` entry exists, and modules import only listed names.

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


def _relative_imports(path: Path) -> dict[str, list[str]]:
    """Names a package file imports from its siblings, by the module they come from."""
    imports: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imports.setdefault(node.module, []).extend(a.name for a in node.names)
    return imports


def test_root_imports_only_listed_names():
    # the listed names themselves are checked by the sibling test below
    assert sorted(_relative_imports(Path(ajscc.__file__))) == sorted(MODULES)


@pytest.mark.parametrize(
    "path", sorted(Path(ajscc.__file__).parent.glob("*.py")), ids=lambda p: p.stem
)
def test_sibling_imports_only_listed_names(path):
    # a module may lean only on what a library module lists as public
    for short, names in _relative_imports(path).items():
        if short in MODULES:
            listed = importlib.import_module(f"ajscc.{short}").__all__
            assert [name for name in names if name not in listed] == [], short
